/**
 * @file
 * NUMA/LLC topology subsystem tests (DESIGN.md §13).
 *
 * Three layers of evidence:
 *
 *  - `Topology*`: the descriptor itself — capacity splitting conserves
 *    the platform totals (machine-global sources excepted by design),
 *    the symmetric builder and validator behave, and the interference
 *    multiplier path is well-defined on the edge cases topology
 *    introduces (zero-capacity domains, attenuated cross-socket
 *    pressure above 1, the Cpu-vs-LLCache cross-socket asymmetry).
 *
 *  - `Socket*` server pressure: per-socket pressure stays conserved
 *    (non-negative, summing to the flat raw ledger) through every
 *    mutation path, and injected pressure homes on its socket.
 *
 *  - `Socket*` placement: socket-aware selection avoids a thrashed
 *    socket where the blind fewest-cores rule walks into it; both
 *    scheduler modes stay bit-identical on multi-socket catalogs; and
 *    the flat single-socket model — default or spelled out as
 *    Topology::single() — is bit-identical to the pre-topology
 *    behaviour across a 20-seed churn sweep. (Reproduction of the
 *    committed BENCH_churn/BENCH_overload/BENCH_trace hashes is gated
 *    end-to-end by the ci/check.sh bench smoke stages; this sweep
 *    proves the equivalence property those gates rely on.)
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "churn/churn.hh"
#include "core/classifier.hh"
#include "core/manager.hh"
#include "core/scheduler.hh"
#include "driver/scenario.hh"
#include "profiling/profiler.hh"
#include "topology/topology.hh"
#include "workload/factory.hh"

using namespace quasar;
using interference::IVector;
using interference::kNumSources;
using interference::Source;
using topology::Topology;
using workload::Workload;

namespace
{

/** Cluster of `n` copies of the 2-socket NUMA preset. */
sim::Cluster
twoSocketCluster(int n)
{
    auto catalog = sim::numaPlatforms();
    std::vector<int> counts(catalog.size(), 0);
    for (size_t i = 0; i < catalog.size(); ++i)
        if (catalog[i].topology.numSockets() == 2)
            counts[i] = n;
    return sim::Cluster(catalog, counts);
}

IVector
distinctCapacity()
{
    IVector v{};
    for (size_t i = 0; i < kNumSources; ++i)
        v[i] = 1.0 + 0.25 * double(i);
    return v;
}

} // namespace

// ---------------------------------------------------------------------
// Topology descriptor
// ---------------------------------------------------------------------

TEST(Topology, SplitCapacityConservesPerSocketSlices)
{
    Topology t = Topology::symmetric(16, 2, /*llc_domains=*/2);
    const IVector total = distinctCapacity();
    const auto caps = t.splitCapacity(total);
    ASSERT_EQ(caps.size(), 2u);
    for (size_t i = 0; i < kNumSources; ++i) {
        const Source s = Source(i);
        if (topology::isMachineGlobal(s)) {
            // Disk and network are machine-global: full capacity on
            // every socket, same behaviour as the flat model.
            EXPECT_EQ(caps[0][i], total[i]) << i;
            EXPECT_EQ(caps[1][i], total[i]) << i;
        } else if (s == Source::LLCache) {
            // Split by socket AND by LLC domain count.
            EXPECT_DOUBLE_EQ(caps[0][i], total[i] / 2.0 / 2.0) << i;
        } else {
            EXPECT_DOUBLE_EQ(caps[0][i] + caps[1][i], total[i]) << i;
        }
    }
}

TEST(Topology, FlatSplitIsBitwiseIdentity)
{
    const IVector total = distinctCapacity();
    for (const Topology &t : {Topology{}, Topology::single(),
                              Topology::symmetric(8, 1)}) {
        ASSERT_TRUE(t.flat());
        const auto caps = t.splitCapacity(total);
        ASSERT_EQ(caps.size(), 1u);
        for (size_t i = 0; i < kNumSources; ++i)
            EXPECT_EQ(caps[0][i], total[i]) << i; // exact, not near
    }
}

TEST(Topology, SymmetricBuilderSpreadsCoreRemainder)
{
    Topology t = Topology::symmetric(10, 4);
    ASSERT_EQ(t.numSockets(), 4);
    EXPECT_EQ(t.sockets[0].cores, 3);
    EXPECT_EQ(t.sockets[1].cores, 3);
    EXPECT_EQ(t.sockets[2].cores, 2);
    EXPECT_EQ(t.sockets[3].cores, 2);
    EXPECT_TRUE(t.valid(10));
    EXPECT_FALSE(t.valid(12)); // core-count mismatch
}

TEST(Topology, ValidRejectsIllFormedLayouts)
{
    Topology t = Topology::symmetric(8, 2);
    EXPECT_TRUE(t.valid(8));

    Topology zero_cores = t;
    zero_cores.sockets[1].cores = 0;
    EXPECT_FALSE(zero_cores.valid(8));

    Topology no_domain = t;
    no_domain.sockets[0].llc_domains = 0;
    EXPECT_FALSE(no_domain.valid(8));

    Topology cross_high = t;
    cross_high.cross_socket[size_t(Source::MemoryBw)] = 1.5;
    EXPECT_FALSE(cross_high.valid(8));

    Topology cross_nan = t;
    cross_nan.cross_socket[size_t(Source::LLCache)] =
        std::nan("");
    EXPECT_FALSE(cross_nan.valid(8));
}

// ---------------------------------------------------------------------
// Interference multiplier path under topology-shaped inputs
// ---------------------------------------------------------------------

TEST(Topology, SourceMultiplierSaturatesAbovePressureOne)
{
    // Attenuated cross-socket views can still exceed 1 (an antagonist
    // pushing 1.4 of normalized pressure leaks 0.7 across at factor
    // 0.5); the multiplier must keep degrading linearly past 1 and
    // bottom out at the floor instead of going negative.
    interference::SensitivityProfile p;
    p.threshold[size_t(Source::MemoryBw)] = 0.3;
    p.slope[size_t(Source::MemoryBw)] = 0.5;
    EXPECT_DOUBLE_EQ(p.sourceMultiplier(Source::MemoryBw, 0.2), 1.0);
    EXPECT_DOUBLE_EQ(p.sourceMultiplier(Source::MemoryBw, 0.7),
                     1.0 - 0.5 * 0.4);
    EXPECT_DOUBLE_EQ(p.sourceMultiplier(Source::MemoryBw, 1.4),
                     1.0 - 0.5 * 1.1);
    // Far past saturation: clamped to the floor, never negative.
    EXPECT_DOUBLE_EQ(p.sourceMultiplier(Source::MemoryBw, 5.0),
                     p.floor);

    IVector everything{};
    everything.fill(10.0);
    EXPECT_DOUBLE_EQ(p.multiplier(everything), p.floor);
}

TEST(Topology, ZeroCapacityDomainYieldsContentionFreeView)
{
    // A platform with no capacity at all in one source (storage-less
    // box: DiskIO 0) must normalize to zero contention there, not
    // inf/NaN — the multiplier path would otherwise floor every
    // placement on the machine.
    auto catalog = sim::numaPlatforms();
    for (auto &p : catalog)
        p.contention_capacity[size_t(Source::DiskIO)] = 0.0;
    std::vector<int> counts(catalog.size(), 0);
    for (size_t i = 0; i < catalog.size(); ++i)
        if (catalog[i].topology.numSockets() == 2)
            counts[i] = 1;
    sim::Cluster cluster(catalog, counts);
    sim::Server &srv = cluster.server(ServerId(0));

    sim::TaskShare share;
    share.workload = WorkloadId(1);
    share.cores = 2;
    share.memory_gb = 1.0;
    share.caused[size_t(Source::DiskIO)] = 0.8;
    share.caused[size_t(Source::MemoryBw)] = 0.4;
    share.socket = 0;
    srv.place(share);

    for (int sock = 0; sock < srv.numSockets(); ++sock) {
        const IVector seen = srv.contentionForNewcomerAt(sock);
        for (size_t i = 0; i < kNumSources; ++i)
            EXPECT_TRUE(std::isfinite(seen[i]))
                << "socket " << sock << " source " << i;
        EXPECT_EQ(seen[size_t(Source::DiskIO)], 0.0) << sock;
    }
    EXPECT_GT(srv.contentionForNewcomerAt(0)[size_t(Source::MemoryBw)],
              0.0);
}

TEST(Topology, CpuVsLLCacheCrossSocketAsymmetry)
{
    // Core-private pressure (Cpu) must not cross the socket boundary
    // at all; LLC pressure leaks at its small cross factor. Equal raw
    // pressure on socket 1 therefore looks very different from
    // socket 0.
    sim::Cluster cluster = twoSocketCluster(1);
    sim::Server &srv = cluster.server(ServerId(0));
    const double cross_llc =
        srv.crossSocketFactor()[size_t(Source::LLCache)];
    ASSERT_EQ(srv.crossSocketFactor()[size_t(Source::Cpu)], 0.0);
    ASSERT_GT(cross_llc, 0.0);

    sim::TaskShare share;
    share.workload = WorkloadId(1);
    share.cores = 2;
    share.memory_gb = 1.0;
    share.caused[size_t(Source::Cpu)] = 0.4;
    share.caused[size_t(Source::LLCache)] = 0.4;
    share.socket = 1;
    srv.place(share);

    const IVector home = srv.contentionForNewcomerAt(1);
    const IVector remote = srv.contentionForNewcomerAt(0);
    const double cap_cpu = srv.socketCapacity(1)[size_t(Source::Cpu)];
    const double cap_llc =
        srv.socketCapacity(1)[size_t(Source::LLCache)];

    // Full strength on the home socket for both sources.
    EXPECT_DOUBLE_EQ(home[size_t(Source::Cpu)], 0.4 / cap_cpu);
    EXPECT_DOUBLE_EQ(home[size_t(Source::LLCache)], 0.4 / cap_llc);
    // Across the boundary: Cpu vanishes, LLC is attenuated.
    EXPECT_EQ(remote[size_t(Source::Cpu)], 0.0);
    EXPECT_DOUBLE_EQ(remote[size_t(Source::LLCache)],
                     cross_llc * 0.4 / cap_llc);
}

TEST(Topology, AttenuatedRemotePressureCanStillExceedOne)
{
    // pressure > 1 saturation through the attenuation path: inject
    // 1.4 normalized memory-bandwidth pressure on socket 1; the home
    // view exceeds 1 (the model does not clamp raw contention) and
    // the remote view is exactly the cross factor times it (the
    // symmetric preset gives both sockets the same capacity).
    sim::Cluster cluster = twoSocketCluster(1);
    sim::Server &srv = cluster.server(ServerId(0));
    const size_t bw = size_t(Source::MemoryBw);
    IVector v{};
    v[bw] = 1.4;
    srv.injectPressureAt(1, v);

    const double home = srv.contentionForNewcomerAt(1)[bw];
    const double remote = srv.contentionForNewcomerAt(0)[bw];
    EXPECT_NEAR(home, 1.4, 1e-12);
    EXPECT_NEAR(remote, srv.crossSocketFactor()[bw] * 1.4, 1e-12);
    EXPECT_GT(home, 1.0);
}

// ---------------------------------------------------------------------
// Per-socket pressure on Server
// ---------------------------------------------------------------------

namespace
{

/** No socket holds negative pressure; sockets sum to the flat raw
 *  ledger. */
void
expectLedgerConserved(const sim::Server &srv, const std::string &ctx)
{
    IVector summed{};
    for (int sock = 0; sock < srv.numSockets(); ++sock) {
        const IVector fresh = srv.freshSocketPressure(sock);
        for (size_t i = 0; i < kNumSources; ++i) {
            EXPECT_GE(fresh[i], -1e-9)
                << ctx << " socket " << sock << " source " << i;
            summed[i] += fresh[i];
        }
    }
    const IVector raw = srv.rawPressure();
    for (size_t i = 0; i < kNumSources; ++i)
        EXPECT_NEAR(summed[i], raw[i], 1e-9) << ctx << " source " << i;
}

sim::TaskShare
pressuredShare(WorkloadId id, int cores, int socket)
{
    sim::TaskShare share;
    share.workload = id;
    share.cores = cores;
    share.memory_gb = 1.0;
    for (size_t i = 0; i < kNumSources; ++i)
        share.caused[i] = 0.05 * double(cores) * double(i + 1);
    share.socket = socket;
    return share;
}

} // namespace

TEST(SocketLedger, ConservedAcrossEveryMutationPath)
{
    sim::Cluster cluster = twoSocketCluster(1);
    sim::Server &srv = cluster.server(ServerId(0));

    srv.place(pressuredShare(WorkloadId(1), 2, 0));
    expectLedgerConserved(srv, "after place s0");
    srv.place(pressuredShare(WorkloadId(2), 4, 1));
    expectLedgerConserved(srv, "after place s1");

    ASSERT_TRUE(srv.resize(WorkloadId(2), 2, 1.0));
    expectLedgerConserved(srv, "after resize");

    ASSERT_TRUE(srv.setIsolation(WorkloadId(1), Source::LLCache, true));
    expectLedgerConserved(srv, "after isolation grant");
    // Workload 1 is alone on socket 0: its partitioned LLC pressure
    // leaves the socket's ledger.
    EXPECT_EQ(srv.freshSocketPressure(0)[size_t(Source::LLCache)], 0.0);
    ASSERT_TRUE(
        srv.setIsolation(WorkloadId(1), Source::LLCache, false));
    expectLedgerConserved(srv, "after isolation revoke");

    IVector inj{};
    inj[size_t(Source::MemoryBw)] = 0.3;
    srv.injectPressureAt(1, inj);
    expectLedgerConserved(srv, "after inject");
    srv.clearInjectedPressure();
    expectLedgerConserved(srv, "after clear inject");

    ASSERT_TRUE(srv.remove(WorkloadId(1)));
    expectLedgerConserved(srv, "after remove");

    srv.markDown();
    expectLedgerConserved(srv, "after markDown");
    for (int sock = 0; sock < srv.numSockets(); ++sock) {
        const IVector after = srv.freshSocketPressure(sock);
        for (size_t i = 0; i < kNumSources; ++i)
            EXPECT_EQ(after[i], 0.0)
                << "socket " << sock << " source " << i;
    }
}

TEST(SocketLedger, InjectedPressureHomesOnItsSocket)
{
    sim::Cluster cluster = twoSocketCluster(1);
    sim::Server &srv = cluster.server(ServerId(0));
    const size_t llc = size_t(Source::LLCache);
    IVector v{};
    v[llc] = 0.5;
    srv.injectPressureAt(1, v);

    // Raw (unnormalized) ledgers: all of it on socket 1.
    EXPECT_EQ(srv.freshSocketPressure(0)[llc], 0.0);
    EXPECT_DOUBLE_EQ(srv.freshSocketPressure(1)[llc],
                     0.5 * srv.socketCapacity(1)[llc]);
    expectLedgerConserved(srv, "after injectPressureAt(1)");
}

// ---------------------------------------------------------------------
// Socket selection in the scheduler
// ---------------------------------------------------------------------

namespace
{

/** Profile-and-classify world anchored on the given cluster's own
 *  catalog (estimates are per-platform; the sizes must match). */
struct SchedWorld
{
    sim::Cluster cluster;
    workload::WorkloadRegistry registry;
    profiling::Profiler profiler;
    core::Classifier clf;
    workload::WorkloadFactory factory{stats::Rng(11)};
    stats::Rng rng{12};

    explicit SchedWorld(sim::Cluster c)
        : cluster(std::move(c)), profiler(cluster.catalog(), {}),
          clf(profiler, {}, 3)
    {
        std::vector<Workload> seeds;
        for (int i = 0; i < 4; ++i)
            seeds.push_back(factory.memcachedService(
                "seed-mc", 4e4 + 1e4 * i, 2e-4, 8.0, nullptr));
        for (int i = 0; i < 4; ++i)
            seeds.push_back(factory.hadoopJob(
                "seed-job", factory.rng().uniform(20.0, 120.0)));
        clf.seedOffline(seeds, 0.0);
    }

    std::pair<WorkloadId, core::WorkloadEstimate> make(Workload w)
    {
        WorkloadId id = registry.add(std::move(w));
        auto data = profiler.profile(registry.get(id), 0.0, rng);
        return {id, clf.classify(registry.get(id), data)};
    }
};

} // namespace

TEST(SocketSelection, AwareAvoidsThrashedSocketBlindWalksIn)
{
    // An antagonist thrashes socket 0 (injected pressure owns no
    // cores). The aware rule reads the per-socket interference view
    // and homes the sensitive service on socket 1; the blind
    // fewest-homed-cores rule sees two empty sockets, tie-breaks to
    // socket 0, and walks straight into the pressure.
    for (bool aware : {true, false}) {
        SchedWorld w(twoSocketCluster(1));
        IVector thrash{};
        thrash[size_t(Source::MemoryBw)] = 0.7;
        thrash[size_t(Source::LLCache)] = 0.8;
        thrash[size_t(Source::Prefetch)] = 0.5;
        w.cluster.server(ServerId(0)).injectPressureAt(0, thrash);

        core::SchedulerConfig cfg;
        cfg.socket_aware = aware;
        core::GreedyScheduler sched(w.cluster, cfg, &w.registry);

        auto [id, est] = w.make(w.factory.memcachedService(
            "mc", 3e4, 2e-4, 8.0, nullptr));
        auto alloc = sched.allocate(w.registry.get(id), est, 1e3, false);
        ASSERT_TRUE(alloc.has_value()) << "aware=" << aware;
        ASSERT_EQ(alloc->nodes.size(), 1u) << "aware=" << aware;
        EXPECT_EQ(alloc->nodes[0].socket, aware ? 1 : 0)
            << "aware=" << aware;
    }
}

TEST(SocketSelection, FlatPlatformAlwaysHomesSocketZero)
{
    // On single-socket machines both settings are the same rule; the
    // socket field must stay 0 so the replay hash fold is untouched.
    for (bool aware : {true, false}) {
        SchedWorld w(sim::Cluster::localCluster()); // all flat
        core::SchedulerConfig cfg;
        cfg.socket_aware = aware;
        core::GreedyScheduler sched(w.cluster, cfg, &w.registry);
        auto [id, est] = w.make(w.factory.memcachedService(
            "mc", 3e4, 2e-4, 8.0, nullptr));
        auto alloc = sched.allocate(w.registry.get(id), est, 1e3, false);
        ASSERT_TRUE(alloc.has_value());
        for (const core::AllocationNode &n : alloc->nodes)
            EXPECT_EQ(n.socket, 0);
    }
}

// ---------------------------------------------------------------------
// Replay equivalence: modes and the flat contract
// ---------------------------------------------------------------------

namespace
{

/** Final simulated state of one churn run, for equality checks. */
struct ChurnRun
{
    std::vector<double> work_done;
    std::vector<bool> completed;
    std::vector<bool> killed;
    std::vector<std::vector<ServerId>> hosting;
    std::vector<int> sockets;
    size_t scheduled = 0;
    size_t evictions = 0;
};

/** Seeded open-loop churn stream on the given catalog. */
ChurnRun
runChurn(const std::vector<sim::Platform> &catalog,
         const std::vector<int> &counts, uint64_t seed,
         bool full_rescan)
{
    sim::Cluster cluster(catalog, counts);
    workload::WorkloadRegistry registry;
    core::QuasarConfig cfg;
    cfg.seed = 7;
    cfg.scheduler.full_rescan = full_rescan;
    core::QuasarManager mgr(cluster, registry, cfg);
    workload::WorkloadFactory seeder{stats::Rng(8)};
    mgr.seedOffline(seeder, 12);

    driver::ScenarioDriver drv(
        cluster, registry, mgr,
        driver::DriverConfig{.tick_s = 10.0, .record_every = 4});

    churn::ChurnConfig ccfg;
    ccfg.seed = seed;
    ccfg.arrivals = churn::ArrivalKind::Pareto;
    ccfg.arrival_rate_per_s = 0.12;
    ccfg.horizon_s = 250.0;
    ccfg.phase_change_fraction = 0.15;
    ccfg.service_lifetime = tracegen::DurationSpec::lognormal(200.0, 0.7);
    ccfg.analytics_lifetime = tracegen::DurationSpec::pareto(150.0, 1.8);
    ccfg.batch_lifetime = tracegen::DurationSpec::exponential(120.0);
    ccfg.best_effort_lifetime =
        tracegen::DurationSpec::exponential(80.0);
    churn::ChurnEngine engine(ccfg);
    engine.install(cluster, registry, drv);
    drv.run(ccfg.horizon_s);

    ChurnRun r;
    for (const churn::ChurnItem &item : engine.plan()) {
        const Workload &w = registry.get(item.id);
        r.work_done.push_back(w.work_done);
        r.completed.push_back(w.completed);
        r.killed.push_back(w.killed);
        r.hosting.push_back(cluster.serversHosting(item.id));
        for (ServerId sid : r.hosting.back()) {
            const sim::TaskShare *share =
                cluster.server(sid).share(item.id);
            r.sockets.push_back(share ? share->socket : -1);
        }
    }
    r.scheduled = mgr.stats().scheduled;
    r.evictions = mgr.stats().evictions;
    return r;
}

void
expectSameRun(const ChurnRun &a, const ChurnRun &b,
              const std::string &ctx)
{
    ASSERT_EQ(a.work_done.size(), b.work_done.size()) << ctx;
    for (size_t i = 0; i < a.work_done.size(); ++i) {
        std::string wctx = ctx + " workload " + std::to_string(i);
        // Exact double compares are the point: the replay contract is
        // bit-identical, not merely close.
        EXPECT_EQ(a.work_done[i], b.work_done[i]) << wctx;
        EXPECT_EQ(a.completed[i], b.completed[i]) << wctx;
        EXPECT_EQ(a.killed[i], b.killed[i]) << wctx;
        EXPECT_EQ(a.hosting[i], b.hosting[i]) << wctx;
    }
    EXPECT_EQ(a.sockets, b.sockets) << ctx;
    EXPECT_EQ(a.scheduled, b.scheduled) << ctx;
    EXPECT_EQ(a.evictions, b.evictions) << ctx;
}

} // namespace

TEST(SocketReplay, AllModesBitIdenticalOnTwoSocketCatalog)
{
    // The socket-selection step rides the same decision path as server
    // selection, so both scheduler modes must keep picking
    // bit-identical (server, socket) pairs on NUMA machines too.
    auto catalog = sim::numaPlatforms();
    std::vector<int> counts(catalog.size(), 4);
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        ChurnRun full = runChurn(catalog, counts, seed, true);
        ChurnRun dirty = runChurn(catalog, counts, seed, false);
        std::string ctx = "seed " + std::to_string(seed);
        expectSameRun(dirty, full, ctx + " dirty-vs-full");
        // The catalog is multi-socket: the sweep only proves something
        // if some placements actually homed off socket 0.
        bool off_zero = false;
        for (int s : full.sockets)
            off_zero = off_zero || s > 0;
        EXPECT_TRUE(off_zero) << ctx;
    }
}

TEST(SocketReplay, FlatTopologyEquivalenceTwentySeeds)
{
    // The flat contract behind the committed bench baselines: the
    // default (empty) topology and an explicit Topology::single() must
    // drive every mode through bit-identical decisions — same
    // placements, same progress, every share on socket 0.
    const auto default_catalog = sim::localPlatforms();
    auto explicit_catalog = default_catalog;
    for (auto &p : explicit_catalog)
        p.topology = Topology::single();
    const std::vector<int> counts(default_catalog.size(), 4);

    for (uint64_t seed = 1; seed <= 20; ++seed) {
        const std::string ctx = "seed " + std::to_string(seed);
        ChurnRun base = runChurn(default_catalog, counts, seed, false);
        for (int s : base.sockets)
            EXPECT_EQ(s, 0) << ctx;
        for (bool full_rescan : {false, true}) {
            ChurnRun ex = runChurn(explicit_catalog, counts, seed,
                                   full_rescan);
            expectSameRun(ex, base,
                          ctx + " explicit-single " +
                              (full_rescan ? "full_rescan" : "dirty"));
        }
    }
}
