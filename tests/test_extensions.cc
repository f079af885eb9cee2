/**
 * @file
 * Tests for the Sec. 4.4 extensions the paper lists as future work and
 * this implementation provides: priority-based preemption, per-workload
 * cost targets, and fault-zone-aware assignment.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/classifier.hh"
#include "core/manager.hh"
#include "core/predictor.hh"
#include "driver/scenario.hh"
#include "core/scheduler.hh"
#include "workload/factory.hh"

using namespace quasar;
using core::GreedyScheduler;
using core::WorkloadEstimate;
using workload::Workload;

namespace
{

struct World
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    profiling::Profiler profiler{cluster.catalog(), {}};
    core::Classifier clf{profiler, {}, 3};
    workload::WorkloadFactory factory{stats::Rng(91)};
    stats::Rng rng{92};

    World()
    {
        std::vector<Workload> seeds;
        for (int i = 0; i < 6; ++i)
            seeds.push_back(factory.hadoopJob(
                "seed", factory.rng().uniform(5.0, 150.0)));
        static const char *fams[] = {"spec-int", "parsec", "specjbb"};
        for (int i = 0; i < 6; ++i)
            seeds.push_back(factory.singleNodeJob("seed", fams[i % 3]));
        clf.seedOffline(seeds, 0.0);
    }

    std::pair<WorkloadId, WorkloadEstimate> make(Workload w)
    {
        WorkloadId id = registry.add(std::move(w));
        auto data = profiler.profile(registry.get(id), 0.0, rng);
        return {id, clf.classify(registry.get(id), data)};
    }
};

} // namespace

TEST(FaultZones, ClusterDealsRoundRobin)
{
    sim::Cluster c = sim::Cluster::localCluster();
    EXPECT_EQ(c.numFaultZones(), 4);
    std::set<int> zones;
    for (size_t i = 0; i < c.size(); ++i) {
        zones.insert(c.server(ServerId(i)).faultZone());
        EXPECT_LT(c.server(ServerId(i)).faultZone(), 4);
    }
    EXPECT_EQ(zones.size(), 4u);
}

TEST(FaultZones, SpreadingUsesDistinctZones)
{
    World w;
    auto [id, est] = w.make(w.factory.hadoopJob("j", 60.0));
    GreedyScheduler sched(w.cluster, {}, &w.registry);
    double best = 0.0;
    for (double v : est.scale_up_perf)
        best = std::max(best, v);
    auto alloc = sched.allocate(w.registry.get(id), est, 3.0 * best,
                                false, true);
    ASSERT_TRUE(alloc.has_value());
    ASSERT_GE(alloc->nodes.size(), 3u);
    std::set<int> zones;
    for (const auto &node : alloc->nodes)
        zones.insert(w.cluster.server(node.server).faultZone());
    // At least three distinct zones across the first nodes.
    EXPECT_GE(zones.size(), 3u);
}

TEST(FaultZones, RelaxesWhenZonesExhausted)
{
    // A 2-zone cluster must still host a 4-node allocation.
    auto catalog = sim::localPlatforms();
    std::vector<int> counts(catalog.size(), 1);
    sim::Cluster cluster(catalog, counts, 2);
    workload::WorkloadRegistry registry;
    profiling::Profiler profiler(cluster.catalog(), {});
    core::Classifier clf(profiler, {}, 4);
    workload::WorkloadFactory factory{stats::Rng(93)};
    std::vector<Workload> seeds;
    for (int i = 0; i < 6; ++i)
        seeds.push_back(
            factory.hadoopJob("seed", factory.rng().uniform(5, 100)));
    clf.seedOffline(seeds, 0.0);

    Workload j = factory.hadoopJob("j", 60.0);
    WorkloadId id = registry.add(j);
    stats::Rng rng(94);
    auto data = profiler.profile(registry.get(id), 0.0, rng);
    auto est = clf.classify(registry.get(id), data);

    GreedyScheduler sched(cluster, {}, &registry);
    double best = 0.0;
    for (double v : est.scale_up_perf)
        best = std::max(best, v);
    auto alloc = sched.allocate(registry.get(id), est, 4.0 * best,
                                false, true);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_GE(alloc->nodes.size(), 3u);
}

TEST(CostTarget, CapBoundsSpending)
{
    World w;
    Workload job = w.factory.hadoopJob("j", 60.0);
    job.cost_cap_per_hour = 1.0; // roughly one high-end server-hour
    auto [id, est] = w.make(std::move(job));
    GreedyScheduler sched(w.cluster, {}, &w.registry);
    auto alloc = sched.allocate(w.registry.get(id), est, 1e12,
                                false);
    ASSERT_TRUE(alloc.has_value());
    double cost = 0.0;
    for (const auto &node : alloc->nodes) {
        const sim::Platform &p =
            w.cluster.server(node.server).platform();
        cost += p.cost_per_hour * double(node.cores) /
                double(p.cores);
    }
    EXPECT_LE(cost, 1.0 + 1e-9);
    EXPECT_TRUE(alloc->degraded); // the cap binds before the target
}

TEST(CostTarget, UncappedSpendsMore)
{
    World w;
    Workload capped = w.factory.hadoopJob("j", 60.0);
    Workload open_job = capped;
    capped.cost_cap_per_hour = 0.6;
    auto [idc, estc] = w.make(std::move(capped));
    auto [ido, esto] = w.make(std::move(open_job));
    GreedyScheduler sched(w.cluster, {}, &w.registry);
    auto a = sched.allocate(w.registry.get(idc), estc, 1e12,
                            false);
    auto b = sched.allocate(w.registry.get(ido), esto, 1e12,
                            false);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_LE(a->totalCores(), b->totalCores());
    EXPECT_LT(a->predicted_perf, b->predicted_perf + 1e-9);
}

TEST(Priorities, HighPriorityEvictsLower)
{
    World w;
    // Fill every J server with a priority-1 resident.
    std::vector<WorkloadId> residents;
    for (ServerId sid : w.cluster.serversOfPlatform("J")) {
        Workload filler = w.factory.singleNodeJob("filler", "specjbb");
        filler.priority = 1;
        filler.total_work = 1e18;
        WorkloadId fid = w.registry.add(filler);
        residents.push_back(fid);
        sim::Server &srv = w.cluster.server(sid);
        sim::TaskShare share;
        share.workload = fid;
        share.cores = srv.platform().cores;
        share.memory_gb = srv.platform().memory_gb;
        srv.place(share);
    }
    // Also fill the rest with priority-5 residents (not evictable).
    for (size_t s = 0; s < w.cluster.size(); ++s) {
        sim::Server &srv = w.cluster.server(ServerId(s));
        if (srv.coresFree() == 0)
            continue;
        Workload filler = w.factory.singleNodeJob("vip", "specjbb");
        filler.priority = 5;
        filler.total_work = 1e18;
        WorkloadId fid = w.registry.add(filler);
        sim::TaskShare share;
        share.workload = fid;
        share.cores = srv.platform().cores;
        share.memory_gb = srv.platform().memory_gb;
        srv.place(share);
    }

    Workload vip = w.factory.hadoopJob("vip-job", 30.0);
    vip.priority = 3; // above the J residents, below the others
    auto [id, est] = w.make(std::move(vip));
    GreedyScheduler sched(w.cluster, {}, &w.registry);
    auto alloc = sched.allocate(w.registry.get(id), est,
                                0.3 * est.scale_up_perf[0],
                                true);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_FALSE(alloc->evictions.empty());
    // Victims must all be the priority-1 residents on J boxes.
    for (const auto &[sid, victim] : alloc->evictions) {
        EXPECT_EQ(w.cluster.server(sid).platform().name, "J");
        EXPECT_EQ(w.registry.get(victim).priority, 1);
    }
}

TEST(Priorities, EqualPriorityNotEvictable)
{
    World w;
    // One J server fully held by an equal-priority resident.
    ServerId sid = w.cluster.serversOfPlatform("J")[0];
    Workload filler = w.factory.singleNodeJob("peer", "specjbb");
    filler.priority = 2;
    WorkloadId fid = w.registry.add(filler);
    sim::Server &srv = w.cluster.server(sid);
    sim::TaskShare share;
    share.workload = fid;
    share.cores = srv.platform().cores;
    share.memory_gb = srv.platform().memory_gb;
    srv.place(share);

    Workload peer = w.factory.hadoopJob("peer-job", 30.0);
    peer.priority = 2;
    auto [id, est] = w.make(std::move(peer));
    GreedyScheduler sched(w.cluster, {}, &w.registry);
    auto alloc = sched.allocate(w.registry.get(id), est,
                                0.2 * est.scale_up_perf[0],
                                true);
    ASSERT_TRUE(alloc.has_value());
    for (const auto &[esid, victim] : alloc->evictions)
        EXPECT_NE(victim, fid);
    for (const auto &node : alloc->nodes)
        EXPECT_NE(node.server, sid);
}

TEST(Platform, CostsGradedBySize)
{
    auto catalog = sim::localPlatforms();
    EXPECT_GT(catalog[9].cost_per_hour, catalog[0].cost_per_hour);
    for (const auto &p : catalog)
        EXPECT_GT(p.cost_per_hour, 0.0);
}

// ----------------------------------------------------- load prediction

TEST(LoadPredictor, FlatLoadPredictsFlat)
{
    core::LoadPredictor p;
    for (double t = 0.0; t <= 300.0; t += 10.0)
        p.observe(t, 100.0);
    EXPECT_TRUE(p.warmedUp());
    EXPECT_NEAR(p.predict(400.0), 100.0, 1.0);
    EXPECT_NEAR(p.trendPerSecond(), 0.0, 0.05);
}

TEST(LoadPredictor, LinearRampExtrapolates)
{
    core::LoadPredictor p;
    for (double t = 0.0; t <= 600.0; t += 10.0)
        p.observe(t, 100.0 + 2.0 * t); // +2 QPS/s
    double forecast = p.predict(720.0);
    double truth = 100.0 + 2.0 * 720.0;
    EXPECT_NEAR(forecast / truth, 1.0, 0.1);
    EXPECT_GT(p.trendPerSecond(), 1.0);
}

TEST(LoadPredictor, NeverNegative)
{
    core::LoadPredictor p;
    for (double t = 0.0; t <= 300.0; t += 10.0)
        p.observe(t, std::max(0.0, 100.0 - t)); // falling to 0
    EXPECT_GE(p.predict(1000.0), 0.0);
}

TEST(LoadPredictor, ColdStartReturnsLastValue)
{
    core::LoadPredictor p;
    EXPECT_DOUBLE_EQ(p.predict(100.0), 0.0);
    p.observe(0.0, 55.0);
    EXPECT_DOUBLE_EQ(p.predict(100.0), 55.0);
    EXPECT_FALSE(p.warmedUp());
}

// ------------------------------------------------ resource partitioning

TEST(Partitioning, IsolationShieldsBothDirections)
{
    auto catalog = sim::localPlatforms();
    sim::Server srv(0, catalog[9]);
    sim::TaskShare noisy;
    noisy.workload = 1;
    noisy.cores = 8;
    noisy.memory_gb = 8.0;
    noisy.caused[2] = 2.0; // heavy LLC pressure
    srv.place(noisy);
    sim::TaskShare victim;
    victim.workload = 2;
    victim.cores = 4;
    victim.memory_gb = 4.0;
    srv.place(victim);

    double before = srv.contentionFor(2)[2];
    EXPECT_GT(before, 0.0);
    // Give the victim a private LLC partition: it stops seeing the
    // pressure.
    ASSERT_TRUE(srv.setIsolation(2, interference::Source::LLCache,
                                 true));
    EXPECT_DOUBLE_EQ(srv.contentionFor(2)[2], 0.0);
    // Other sources unaffected.
    EXPECT_DOUBLE_EQ(srv.contentionFor(2)[0], 0.0);

    // Conversely, isolating the noisy task contains its pressure.
    srv.setIsolation(2, interference::Source::LLCache, false);
    ASSERT_TRUE(srv.setIsolation(1, interference::Source::LLCache,
                                 true));
    EXPECT_DOUBLE_EQ(srv.contentionFor(2)[2], 0.0);
    EXPECT_FALSE(srv.setIsolation(42, interference::Source::LLCache,
                                  true));
}

TEST(Partitioning, OracleChargesCapacityCost)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    workload::WorkloadFactory f{stats::Rng(97)};
    Workload w = f.singleNodeJob("p", "specjbb");
    WorkloadId id = registry.add(w);
    sim::TaskShare share;
    share.workload = id;
    share.cores = 8;
    share.memory_gb = 8.0;
    share.caused = registry.get(id).causedPressure(0.0, 8);
    cluster.server(36).place(share);
    workload::PerfOracle oracle(cluster, registry);
    double before = oracle.currentRate(registry.get(id), 0.0);
    cluster.server(36).setIsolation(id, interference::Source::LLCache,
                                    true);
    double after = oracle.currentRate(registry.get(id), 0.0);
    EXPECT_NEAR(after / before, 0.95, 1e-9);
}

TEST(Partitioning, ManagerGrantsUnderInterference)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    core::QuasarConfig cfg;
    cfg.seed = 98;
    core::QuasarManager mgr(cluster, registry, cfg);
    workload::WorkloadFactory seeder{stats::Rng(99)};
    mgr.seedOffline(seeder, 20);
    driver::ScenarioDriver drv(cluster, registry, mgr,
                               driver::DriverConfig{.tick_s = 10.0});
    workload::WorkloadFactory f{stats::Rng(100)};

    // A long-running sensitive job.
    Workload job = f.singleNodeJob("sensitive", "specjbb");
    job.truth.sensitivity.threshold.fill(0.05);
    job.truth.sensitivity.slope.fill(2.0);
    job.total_work *= 200.0;
    WorkloadId id = registry.add(job);
    drv.addArrival(id, 1.0);

    // Noisy long-running neighbours that will share its servers.
    for (int i = 0; i < 60; ++i) {
        Workload n = f.singleNodeJob("noisy", "parsec");
        n.truth.sensitivity.caused_per_core.fill(0.15);
        n.total_work *= 200.0;
        drv.addArrival(registry.add(n), 5.0 + i);
    }
    drv.run(3000.0);
    EXPECT_GT(mgr.stats().partitions_granted, 0u);
}
