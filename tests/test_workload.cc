/**
 * @file
 * Tests for the workload substrate: quantized configuration grids, the
 * ground-truth performance model (Amdahl scale-up, memory cliff, knob
 * response, scale-out families, platform idiosyncrasy), the queueing
 * closed forms, targets, registry, and the performance oracle.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "workload/factory.hh"
#include "workload/queueing.hh"
#include "workload/workload.hh"

using namespace quasar;
using namespace quasar::workload;

// ---------------------------------------------------------------- grids

TEST(ScaleUpGrid, GenericGridQuantized)
{
    auto catalog = sim::localPlatforms();
    auto grid = scaleUpGrid(catalog[9], WorkloadType::SingleNode);
    EXPECT_FALSE(grid.empty());
    for (const auto &cfg : grid) {
        EXPECT_GE(cfg.cores, 1);
        EXPECT_LE(cfg.cores, 24);
        EXPECT_LE(cfg.memory_gb, 48.0);
    }
}

TEST(ScaleUpGrid, AnalyticsHeapsMustFit)
{
    auto catalog = sim::localPlatforms();
    auto grid = scaleUpGrid(catalog[9], WorkloadType::Analytics);
    EXPECT_FALSE(grid.empty());
    for (const auto &cfg : grid)
        EXPECT_LE(cfg.knobs.mappers_per_node * cfg.knobs.heap_gb,
                  cfg.memory_gb + 1e-9);
}

TEST(ScaleUpGrid, SmallPlatformNonEmptyForAnalytics)
{
    auto catalog = sim::localPlatforms();
    // Platform A: 2 cores / 4 GB — the regression that once produced
    // an empty grid.
    auto grid = scaleUpGrid(catalog[0], WorkloadType::Analytics);
    EXPECT_FALSE(grid.empty());
}

TEST(ScaleOutGrid, StartsAtOneAndIsMonotone)
{
    auto grid = scaleOutGrid(100);
    ASSERT_FALSE(grid.empty());
    EXPECT_EQ(grid.front(), 1);
    EXPECT_EQ(grid.back(), 100);
    for (size_t i = 1; i < grid.size(); ++i)
        EXPECT_GT(grid[i], grid[i - 1]);
}

TEST(WorkloadTypes, Predicates)
{
    EXPECT_TRUE(isDistributed(WorkloadType::Analytics));
    EXPECT_FALSE(isDistributed(WorkloadType::SingleNode));
    EXPECT_TRUE(isLatencyCritical(WorkloadType::LatencyService));
    EXPECT_TRUE(isLatencyCritical(WorkloadType::StatefulService));
    EXPECT_FALSE(isLatencyCritical(WorkloadType::Analytics));
}

// ------------------------------------------------------------- truth

TEST(Truth, AmdahlLimits)
{
    EXPECT_DOUBLE_EQ(amdahlSpeedup(0.0, 8.0), 8.0);
    EXPECT_DOUBLE_EQ(amdahlSpeedup(1.0, 8.0), 1.0);
    EXPECT_NEAR(amdahlSpeedup(0.1, 1e9), 10.0, 1e-6);
}

TEST(Truth, MemoryFactorCliffAndBonus)
{
    GroundTruth t;
    t.mem_demand_gb = 8.0;
    t.mem_bonus = 0.05;
    EXPECT_DOUBLE_EQ(memoryFactor(t, 8.0), 1.0);
    EXPECT_GT(memoryFactor(t, 16.0), 1.0);
    EXPECT_LT(memoryFactor(t, 4.0), 1.0);
    // Hard cliff but floored.
    EXPECT_GE(memoryFactor(t, 0.5), 0.05);
    EXPECT_LT(memoryFactor(t, 1.0), memoryFactor(t, 4.0));
}

TEST(Truth, KnobFactorPeaksAtOptimum)
{
    GroundTruth t;
    t.type = WorkloadType::Analytics;
    t.mapper_ratio_opt = 1.0;
    t.heap_opt_gb = 1.5;
    t.compression_affinity = 1.0;

    ScaleUpConfig at_opt;
    at_opt.cores = 8;
    at_opt.memory_gb = 24.0;
    at_opt.knobs.mappers_per_node = 8;
    at_opt.knobs.heap_gb = 1.5;
    at_opt.knobs.compression = Compression::Gzip;

    ScaleUpConfig off = at_opt;
    off.knobs.mappers_per_node = 2;
    off.knobs.heap_gb = 0.75;
    off.knobs.compression = Compression::Lzo;

    EXPECT_GT(knobFactor(t, at_opt), knobFactor(t, off));
    // Favorable compression can push the factor slightly above 1.
    EXPECT_LE(knobFactor(t, at_opt), 1.05);
    // Non-analytics ignore knobs entirely.
    t.type = WorkloadType::SingleNode;
    EXPECT_DOUBLE_EQ(knobFactor(t, off), 1.0);
}

TEST(Truth, NodeRateMonotoneInCoresForParallelWork)
{
    auto catalog = sim::localPlatforms();
    GroundTruth t;
    t.type = WorkloadType::SingleNode;
    t.parallelism = 32.0;
    t.serial_fraction = 0.05;
    t.mem_demand_gb = 2.0;
    ScaleUpConfig a, b;
    a.cores = 2;
    a.memory_gb = 8.0;
    b.cores = 16;
    b.memory_gb = 8.0;
    EXPECT_GT(t.nodeRateQuiet(catalog[9], b),
              t.nodeRateQuiet(catalog[9], a));
}

TEST(Truth, ParallelismCapsScaleUp)
{
    auto catalog = sim::localPlatforms();
    GroundTruth t;
    t.parallelism = 4.0;
    t.serial_fraction = 0.0;
    t.mem_demand_gb = 1.0;
    ScaleUpConfig c4, c16;
    c4.cores = 4;
    c4.memory_gb = 8.0;
    c16.cores = 16;
    c16.memory_gb = 8.0;
    EXPECT_NEAR(t.nodeRateQuiet(catalog[9], c4),
                t.nodeRateQuiet(catalog[9], c16), 1e-9);
}

TEST(Truth, FasterPlatformFasterRate)
{
    auto catalog = sim::localPlatforms();
    GroundTruth t;
    t.idio_sigma = 0.0; // isolate the systematic effect
    t.mem_demand_gb = 1.0;
    ScaleUpConfig cfg;
    cfg.cores = 2;
    cfg.memory_gb = 2.0;
    EXPECT_GT(t.nodeRateQuiet(catalog[9], cfg),
              t.nodeRateQuiet(catalog[0], cfg));
}

TEST(Truth, IdiosyncrasyDeterministicPerPlatform)
{
    auto catalog = sim::localPlatforms();
    GroundTruth t;
    t.idio_seed = 1234;
    t.idio_sigma = 0.1;
    double a = t.idiosyncrasy(catalog[2]);
    EXPECT_DOUBLE_EQ(a, t.idiosyncrasy(catalog[2]));
    EXPECT_NE(a, t.idiosyncrasy(catalog[3]));
    EXPECT_GT(a, 0.8);
    EXPECT_LT(a, 1.25);
}

TEST(Truth, ScaleOutFamilies)
{
    GroundTruth sub;
    sub.scale_out_alpha = 0.9;
    sub.scale_out_overhead = 0.02;
    GroundTruth super;
    super.scale_out_alpha = 1.05;
    super.scale_out_overhead = 0.0;
    EXPECT_LT(sub.scaleOutEfficiency(8), 1.0);
    EXPECT_GT(super.scaleOutEfficiency(8), 1.0);
    EXPECT_DOUBLE_EQ(sub.scaleOutEfficiency(1), 1.0);

    std::vector<double> four(4, 2.0);
    EXPECT_NEAR(sub.jobRate(four), 8.0 * sub.scaleOutEfficiency(4),
                1e-12);
    EXPECT_DOUBLE_EQ(sub.jobRate({}), 0.0);
}

TEST(Truth, InterferenceReducesRate)
{
    auto catalog = sim::localPlatforms();
    GroundTruth t;
    t.mem_demand_gb = 2.0;
    t.sensitivity.threshold.fill(0.2);
    t.sensitivity.slope.fill(2.0);
    ScaleUpConfig cfg;
    cfg.cores = 4;
    cfg.memory_gb = 4.0;
    auto iv = interference::zeroVector();
    iv[0] = 0.8;
    EXPECT_LT(t.nodeRate(catalog[9], cfg, iv),
              t.nodeRateQuiet(catalog[9], cfg));
}

// ---------------------------------------------------------- queueing

TEST(Queueing, LatencyDivergesNearSaturation)
{
    double lo = percentileLatency(100.0, 1000.0);
    double hi = percentileLatency(950.0, 1000.0);
    EXPECT_LT(lo, hi);
    EXPECT_DOUBLE_EQ(percentileLatency(1000.0, 1000.0),
                     kSaturatedLatency);
    EXPECT_DOUBLE_EQ(percentileLatency(10.0, 0.0), kSaturatedLatency);
}

TEST(Queueing, MaxQpsWithinQosInvertsLatency)
{
    double cap = 1000.0, qos = 0.05;
    double knee = maxQpsWithinQos(cap, qos);
    EXPECT_GT(knee, 0.0);
    EXPECT_LT(knee, cap);
    EXPECT_NEAR(percentileLatency(knee, cap), qos, 1e-9);
    // Capacity too small for the QoS at any load.
    EXPECT_DOUBLE_EQ(maxQpsWithinQos(10.0, qos), 0.0);
}

TEST(Queueing, FractionMeetingQosBehaviour)
{
    EXPECT_NEAR(fractionMeetingQos(0.0, 1000.0, 0.05), 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(fractionMeetingQos(1200.0, 1000.0, 0.05), 0.0);
    double mid = fractionMeetingQos(900.0, 1000.0, 0.05);
    EXPECT_GT(mid, 0.9);
    EXPECT_LT(mid, 1.0);
}

TEST(Queueing, ServedQpsClamped)
{
    EXPECT_DOUBLE_EQ(servedQps(500.0, 1000.0), 500.0);
    EXPECT_DOUBLE_EQ(servedQps(1500.0, 1000.0), 1000.0);
    EXPECT_DOUBLE_EQ(servedQps(-5.0, 1000.0), 0.0);
}

// ----------------------------------------------------- targets & registry

TEST(PerformanceTarget, Factories)
{
    auto ct = PerformanceTarget::completionTime(100.0, 500.0);
    EXPECT_EQ(ct.kind, TargetKind::CompletionTime);
    EXPECT_DOUBLE_EQ(ct.rate, 5.0);
    auto ql = PerformanceTarget::qpsLatency(1e5, 2e-4);
    EXPECT_EQ(ql.kind, TargetKind::QpsLatency);
    auto ips = PerformanceTarget::ips(2.0);
    EXPECT_DOUBLE_EQ(ips.rate, 2.0);
}

TEST(Registry, AddAndLifecycle)
{
    WorkloadRegistry reg;
    Workload w;
    w.name = "x";
    WorkloadId a = reg.add(w);
    WorkloadId b = reg.add(w);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_EQ(reg.active().size(), 2u);
    reg.get(a).completed = true;
    reg.get(b).killed = true;
    EXPECT_TRUE(reg.active().empty());
    EXPECT_EQ(reg.all().size(), 2u);
}

TEST(Workload, PhaseTruthSwitch)
{
    Workload w;
    w.truth.base_rate = 1.0;
    w.phase_truth = w.truth;
    w.phase_truth.base_rate = 2.0;
    w.phase_change_time = 100.0;
    EXPECT_DOUBLE_EQ(w.truthAt(50.0).base_rate, 1.0);
    EXPECT_DOUBLE_EQ(w.truthAt(150.0).base_rate, 2.0);
    w.phase_change_time = -1.0;
    EXPECT_DOUBLE_EQ(w.truthAt(150.0).base_rate, 1.0);
}

TEST(Workload, OfferedQpsOnlyForServices)
{
    Workload w;
    w.type = WorkloadType::StatefulService;
    w.load = std::make_shared<tracegen::FlatLoad>(100.0);
    EXPECT_DOUBLE_EQ(w.offeredQps(5.0), 100.0);
    w.type = WorkloadType::Analytics;
    EXPECT_DOUBLE_EQ(w.offeredQps(5.0), 0.0);
}

// -------------------------------------------------------------- oracle

namespace
{

struct OracleWorld
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    WorkloadRegistry registry;
    PerfOracle oracle{cluster, registry};

    WorkloadId place(Workload w, int cores, double mem,
                     std::vector<ServerId> servers)
    {
        WorkloadId id = registry.add(std::move(w));
        for (ServerId s : servers) {
            sim::TaskShare share;
            share.workload = id;
            share.cores = cores;
            share.memory_gb = mem;
            share.caused =
                registry.get(id).causedPressure(0.0, cores);
            cluster.server(s).place(share);
        }
        return id;
    }
};

} // namespace

TEST(PerfOracle, RateMatchesTruthForSinglePlacement)
{
    OracleWorld world;
    WorkloadFactory f{stats::Rng(5)};
    Workload w = f.singleNodeJob("job", "parsec");
    // Server 36 is a J box.
    WorkloadId id = world.place(w, 8, 8.0, {36});
    const Workload &live = world.registry.get(id);
    ScaleUpConfig cfg;
    cfg.cores = 8;
    cfg.memory_gb = 8.0;
    double expect = live.truth.nodeRateQuiet(
        world.cluster.server(36).platform(), cfg);
    EXPECT_NEAR(world.oracle.currentRate(live, 0.0), expect, 1e-9);
}

TEST(PerfOracle, UnplacedWorkloadHasZeroRate)
{
    OracleWorld world;
    WorkloadFactory f{stats::Rng(5)};
    WorkloadId id = world.registry.add(f.singleNodeJob("j", "mix"));
    EXPECT_DOUBLE_EQ(
        world.oracle.currentRate(world.registry.get(id), 0.0), 0.0);
}

TEST(PerfOracle, CoLocationDegradesBoth)
{
    OracleWorld world;
    WorkloadFactory f{stats::Rng(6)};
    Workload a = f.hadoopJob("a", 50.0);
    a.truth.sensitivity.threshold.fill(0.05);
    a.truth.sensitivity.slope.fill(2.0);
    Workload b = f.hadoopJob("b", 50.0);
    b.truth.sensitivity.caused_per_core.fill(0.2);
    WorkloadId ida = world.place(a, 8, 8.0, {36});
    double solo = world.oracle.currentRate(world.registry.get(ida),
                                           0.0);
    world.place(b, 8, 8.0, {36});
    double shared = world.oracle.currentRate(world.registry.get(ida),
                                             0.0);
    EXPECT_LT(shared, solo);
}

TEST(PerfOracle, ServiceCapacityAndQoS)
{
    OracleWorld world;
    WorkloadFactory f{stats::Rng(7)};
    Workload mc = f.memcachedService(
        "mc", 1e5, 200e-6, 40.0,
        std::make_shared<tracegen::FlatLoad>(1e5));
    WorkloadId id = world.place(mc, 16, 32.0, {36, 37});
    const Workload &live = world.registry.get(id);
    double cap = world.oracle.serviceCapacityQps(live, 0.0);
    EXPECT_GT(cap, 0.0);
    double p99 = world.oracle.serviceP99(live, 0.0);
    if (1e5 < cap) {
        EXPECT_LT(p99, kSaturatedLatency);
    }
    // Normalized perf for services is capacity-within-QoS over
    // offered load: above 1 means headroom.
    double norm = world.oracle.normalizedPerformance(live, 0.0);
    EXPECT_GE(norm, 0.0);
}

TEST(PerfOracle, DegradationWindowReducesRate)
{
    OracleWorld world;
    WorkloadFactory f{stats::Rng(8)};
    Workload w = f.hadoopJob("j", 20.0);
    WorkloadId id = world.place(w, 8, 8.0, {36});
    Workload &live = world.registry.get(id);
    double before = world.oracle.currentRate(live, 0.0);
    live.degraded_until = 100.0;
    live.degraded_factor = 0.5;
    EXPECT_NEAR(world.oracle.currentRate(live, 50.0), 0.5 * before,
                1e-9);
    EXPECT_NEAR(world.oracle.currentRate(live, 150.0), before, 1e-9);
}

TEST(PerfOracle, UsedCoresRespectsParallelismAndLoad)
{
    OracleWorld world;
    WorkloadFactory f{stats::Rng(9)};
    Workload w = f.singleNodeJob("spec", "spec-int"); // parallelism 1
    WorkloadId id = world.place(w, 8, 4.0, {36});
    const sim::TaskShare *share = world.cluster.server(36).share(id);
    double used = world.oracle.usedCores(
        world.registry.get(id), world.cluster.server(36), *share, 0.0);
    EXPECT_LE(used, 1.0 + 1e-9);
}

// --------------------------------------------------------- oracle memo
//
// PerfOracle memoizes currentRate per workload, valid while t, the
// cluster journal's end, active_knobs, degraded_until and
// degraded_factor are bitwise unchanged. Each test below primes the
// memo, changes exactly one of those inputs in a way that moves the
// rate, and demands the memo agree bitwise with a fresh oracle — so
// dropping any key field from the validity check fails a test.

namespace
{

/**
 * Job A runs on servers 36 and 37. 36 also hosts co-runner B; 37 is
 * degraded and carries injected pressure, so every journaled mutator
 * has something to change. C is registered but not placed.
 */
struct MemoWorld
{
    OracleWorld world;
    WorkloadId a = kInvalidWorkload;
    WorkloadId c = kInvalidWorkload;

    MemoWorld()
    {
        WorkloadFactory f{stats::Rng(11)};
        Workload job = f.hadoopJob("a", 50.0);
        job.truth.sensitivity.threshold.fill(0.05);
        job.truth.sensitivity.slope.fill(0.3);
        a = world.place(job, 8, 8.0, {36, 37});
        Workload b = f.hadoopJob("b", 50.0);
        b.truth.sensitivity.caused_per_core.fill(0.02);
        world.place(b, 4, 4.0, {36});
        Workload other = f.hadoopJob("c", 50.0);
        other.truth.sensitivity.caused_per_core.fill(0.03);
        c = world.registry.add(other);
        interference::IVector push{};
        push.fill(0.2);
        world.cluster.server(37).injectPressureAt(0, push);
        world.cluster.server(37).degrade(0.7);
    }

    Workload &job() { return world.registry.get(a); }
    sim::Server &server(ServerId s) { return world.cluster.server(s); }

    /**
     * Prime the memo at t_prime, apply the change, then read at
     * t_query: the memo must match a fresh oracle bit for bit, and the
     * change must have moved the rate (else the check proves nothing).
     */
    template <typename Change>
    void expectMemoTracks(Change change, double t_prime = 10.0,
                          double t_query = 10.0)
    {
        double before = world.oracle.currentRate(job(), t_prime);
        // A repeated read is a memo hit and must not move either.
        ASSERT_EQ(std::bit_cast<uint64_t>(
                      world.oracle.currentRate(job(), t_prime)),
                  std::bit_cast<uint64_t>(before));
        change();
        double memo = world.oracle.currentRate(job(), t_query);
        double fresh = PerfOracle(world.cluster, world.registry)
                           .currentRate(job(), t_query);
        EXPECT_EQ(std::bit_cast<uint64_t>(memo),
                  std::bit_cast<uint64_t>(fresh))
            << "memo " << memo << " vs fresh " << fresh;
        EXPECT_NE(std::bit_cast<uint64_t>(before),
                  std::bit_cast<uint64_t>(fresh))
            << "the change left the rate at " << before;
    }
};

void
mutate_clearInjectedPressure(MemoWorld &m)
{
    m.server(37).clearInjectedPressure();
}

void
mutate_degrade(MemoWorld &m)
{
    m.server(36).degrade(0.5);
}

void
mutate_injectPressureAt(MemoWorld &m)
{
    interference::IVector push{};
    push.fill(0.1);
    m.server(36).injectPressureAt(0, push);
}

void
mutate_markDown(MemoWorld &m)
{
    m.server(37).markDown();
}

void
mutate_place(MemoWorld &m)
{
    sim::TaskShare share;
    share.workload = m.c;
    share.cores = 4;
    share.memory_gb = 4.0;
    share.caused = m.world.registry.get(m.c).causedPressure(0.0, 4);
    m.server(36).place(share);
}

void
mutate_recover(MemoWorld &m)
{
    m.server(37).recover();
}

void
mutate_remove(MemoWorld &m)
{
    // Drop co-runner B (the only other tenant of server 36).
    for (const sim::TaskShare &share : m.server(36).tasks())
        if (share.workload != m.a) {
            m.server(36).remove(share.workload);
            return;
        }
}

void
mutate_resize(MemoWorld &m)
{
    m.server(36).resize(m.a, 4, 8.0);
}

void
mutate_setIsolation(MemoWorld &m)
{
    m.server(36).setIsolation(m.a, interference::Source::MemoryBw,
                              true);
}

} // namespace

// One test per journaled Server mutator, generated from the same list
// the lint and the verify death tests use: a mutator added there
// needs a mutate_<name> above before this file compiles.
#define QUASAR_JOURNALED_MUTATOR(name)                                  \
    TEST(PerfOracleMemo, name)                                          \
    {                                                                   \
        MemoWorld m;                                                    \
        m.expectMemoTracks([&m] { mutate_##name(m); });                 \
    }
#include "verify/journaled_mutators.def"
#undef QUASAR_JOURNALED_MUTATOR

TEST(PerfOracleMemo, KnobWritesInvalidate)
{
    MemoWorld m;
    m.expectMemoTracks([&m] { m.job().active_knobs.mappers_per_node = 24; });
    MemoWorld h;
    h.expectMemoTracks([&h] { h.job().active_knobs.heap_gb = 4.0; });
    MemoWorld c;
    c.expectMemoTracks([&c] {
        c.job().active_knobs.compression = Compression::None;
    });
}

TEST(PerfOracleMemo, DegradedUntilWriteInvalidates)
{
    MemoWorld m;
    m.job().degraded_factor = 0.5; // inert until the window opens
    m.expectMemoTracks([&m] { m.job().degraded_until = 100.0; });
}

TEST(PerfOracleMemo, DegradedFactorWriteInvalidates)
{
    MemoWorld m;
    m.job().degraded_until = 100.0;
    m.job().degraded_factor = 0.5;
    m.expectMemoTracks([&m] { m.job().degraded_factor = 0.25; });
}

TEST(PerfOracleMemo, NewTimeInvalidates)
{
    // Primed after the degradation window closes, read inside it.
    MemoWorld m;
    m.job().degraded_until = 100.0;
    m.job().degraded_factor = 0.5;
    m.expectMemoTracks([] {}, 150.0, 50.0);
}

TEST(PerfOracleMemo, DetachedCopyIsNotServedFromTheMemo)
{
    MemoWorld m;
    double live = m.world.oracle.currentRate(m.job(), 10.0);
    Workload copy = m.job();
    copy.truth.base_rate *= 2.0;
    double fresh = PerfOracle(m.world.cluster, m.world.registry)
                       .currentRate(copy, 10.0);
    EXPECT_EQ(std::bit_cast<uint64_t>(
                  m.world.oracle.currentRate(copy, 10.0)),
              std::bit_cast<uint64_t>(fresh));
    EXPECT_NE(std::bit_cast<uint64_t>(fresh),
              std::bit_cast<uint64_t>(live));
}

// -------------------------------------------------------------- factory

TEST(Factory, DeterministicForSeed)
{
    WorkloadFactory a{stats::Rng(11)}, b{stats::Rng(11)};
    Workload wa = a.hadoopJob("x", 50.0);
    Workload wb = b.hadoopJob("x", 50.0);
    EXPECT_DOUBLE_EQ(wa.truth.base_rate, wb.truth.base_rate);
    EXPECT_DOUBLE_EQ(wa.total_work, wb.total_work);
}

TEST(Factory, ArchetypesHaveSaneShapes)
{
    WorkloadFactory f{stats::Rng(12)};
    Workload h = f.hadoopJob("h", 100.0);
    EXPECT_EQ(h.type, WorkloadType::Analytics);
    EXPECT_GT(h.total_work, 0.0);
    EXPECT_LE(h.truth.mem_demand_gb, 16.0);

    Workload mc = f.memcachedService(
        "m", 2e5, 2e-4, 64.0, std::make_shared<tracegen::FlatLoad>(2e5));
    EXPECT_EQ(mc.type, WorkloadType::StatefulService);
    EXPECT_GT(mc.truth.capacityQps(10.0), 1e4); // low req_cost

    Workload spec = f.singleNodeJob("s", "spec-int");
    EXPECT_DOUBLE_EQ(spec.truth.parallelism, 1.0);
    EXPECT_DOUBLE_EQ(spec.truth.serial_fraction, 1.0);

    Workload be = f.bestEffortJob("b");
    EXPECT_TRUE(be.best_effort);
}

TEST(Factory, PhaseChangeInstalls)
{
    WorkloadFactory f{stats::Rng(13)};
    Workload w = f.hadoopJob("h", 30.0);
    f.addPhaseChange(w, 500.0);
    EXPECT_DOUBLE_EQ(w.phase_change_time, 500.0);
    // The phase truth differs somewhere measurable.
    bool differs = w.phase_truth.base_rate != w.truth.base_rate ||
                   w.phase_truth.mem_demand_gb !=
                       w.truth.mem_demand_gb;
    EXPECT_TRUE(differs);
}

TEST(Factory, RandomWorkloadMixCoversTypes)
{
    WorkloadFactory f{stats::Rng(14)};
    int types[4] = {0, 0, 0, 0};
    for (int i = 0; i < 200; ++i)
        ++types[size_t(f.randomWorkload("w").type)];
    EXPECT_GT(types[size_t(WorkloadType::SingleNode)], 60);
    EXPECT_GT(types[size_t(WorkloadType::Analytics)], 30);
    EXPECT_GT(types[size_t(WorkloadType::LatencyService)] +
                  types[size_t(WorkloadType::StatefulService)],
              10);
}

TEST(Factory, DefaultAnalyticsTargetAchievable)
{
    WorkloadFactory f{stats::Rng(15)};
    auto catalog = sim::localPlatforms();
    Workload w = f.hadoopJob("h", 40.0);
    auto target = WorkloadFactory::defaultAnalyticsTarget(
        w, catalog[sim::highestEndPlatform(catalog)]);
    EXPECT_EQ(target.kind, TargetKind::CompletionTime);
    EXPECT_GT(target.completion_time_s, 0.0);
    EXPECT_GT(target.rate, 0.0);
}
