/**
 * @file
 * Property-based sweeps (parameterized over seeds): invariants of the
 * ground-truth model, the queueing closed forms, the classifier's
 * output ranges, and the scheduler's feasibility guarantees must hold
 * for arbitrary workloads, not just hand-picked cases.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/classifier.hh"
#include "core/scheduler.hh"
#include "workload/factory.hh"
#include "workload/queueing.hh"

using namespace quasar;
using workload::ScaleUpConfig;
using workload::Workload;

class SeedSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SeedSweep, TruthModelInvariants)
{
    workload::WorkloadFactory f{stats::Rng(GetParam())};
    auto catalog = sim::localPlatforms();
    Workload w = f.randomWorkload("p");
    const workload::GroundTruth &t = w.truth;

    for (const sim::Platform &p : catalog) {
        auto grid = workload::scaleUpGrid(p, w.type);
        double prev_mem_rate = -1.0;
        for (const ScaleUpConfig &cfg : grid) {
            double quiet = t.nodeRateQuiet(p, cfg);
            // Rates are positive and finite.
            EXPECT_GT(quiet, 0.0);
            EXPECT_TRUE(std::isfinite(quiet));
            // Contention can only slow a workload down.
            auto hot = interference::zeroVector();
            hot.fill(0.95);
            EXPECT_LE(t.nodeRate(p, cfg, hot), quiet + 1e-12);
            (void)prev_mem_rate;
        }
    }
    // Memory factor is non-decreasing in memory.
    double prev = 0.0;
    for (double m = 0.5; m <= 64.0; m *= 2.0) {
        double cur = workload::memoryFactor(t, m);
        EXPECT_GE(cur, prev - 1e-12);
        prev = cur;
    }
    // Scale-out efficiency starts at exactly 1.
    EXPECT_DOUBLE_EQ(t.scaleOutEfficiency(1), 1.0);
}

TEST_P(SeedSweep, SensitivityProfileInvariants)
{
    workload::WorkloadFactory f{stats::Rng(GetParam() ^ 0xABCD)};
    Workload w = f.randomWorkload("p");
    const auto &s = w.truth.sensitivity;
    for (size_t i = 0; i < interference::kNumSources; ++i) {
        auto src = interference::sourceAt(i);
        // Multiplier is 1 at zero contention and non-increasing.
        EXPECT_DOUBLE_EQ(s.sourceMultiplier(src, 0.0), 1.0);
        double prev = 1.0;
        for (double c = 0.0; c <= 1.5; c += 0.1) {
            double m = s.sourceMultiplier(src, c);
            EXPECT_LE(m, prev + 1e-12);
            EXPECT_GE(m, s.floor - 1e-12);
            prev = m;
        }
        double tol = s.toleratedIntensity(src);
        EXPECT_GE(tol, 0.0);
        EXPECT_LE(tol, 1.0);
    }
}

TEST_P(SeedSweep, QueueingMonotonicity)
{
    stats::Rng rng(GetParam() ^ 0x9999);
    double cap = rng.uniform(100.0, 1e6);
    double qos = rng.uniform(1e-4, 0.1);
    double prev_lat = 0.0, prev_frac = 1.0;
    for (double rho = 0.05; rho < 1.2; rho += 0.05) {
        double off = rho * cap;
        double lat = workload::percentileLatency(off, cap);
        double frac = workload::fractionMeetingQos(off, cap, qos);
        EXPECT_GE(lat, prev_lat - 1e-12);    // latency rises with load
        EXPECT_LE(frac, prev_frac + 1e-12);  // QoS share falls
        prev_lat = lat;
        prev_frac = frac;
    }
    double knee = workload::maxQpsWithinQos(cap, qos);
    if (knee > 0.0) {
        EXPECT_LE(workload::percentileLatency(knee * 0.999, cap),
                  qos + 1e-9);
    }
}

TEST_P(SeedSweep, ProfilerSamplesAreWellFormed)
{
    auto catalog = sim::localPlatforms();
    profiling::Profiler profiler(catalog, {});
    workload::WorkloadFactory f{stats::Rng(GetParam() ^ 0x1111)};
    stats::Rng rng(GetParam() ^ 0x2222);
    Workload w = f.randomWorkload("p");
    auto d = profiler.profile(w, 0.0, rng);
    EXPECT_GT(d.reference_value, 0.0);
    auto grid = workload::scaleUpGrid(
        catalog[profiler.scaleUpPlatform()], w.type);
    for (const auto &s : d.scale_up) {
        EXPECT_LT(s.column, grid.size());
        EXPECT_GT(s.value, 0.0);
    }
    for (const auto &s : d.interference) {
        EXPECT_LT(s.column, interference::kNumSources);
        EXPECT_GE(s.value, 0.0);
        EXPECT_LE(s.value, 1.0);
    }
    EXPECT_GT(d.profiling_seconds, 0.0);
}

namespace
{

/** Shared classifier world for the scheduler sweep (built once). */
struct SweepWorld
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    profiling::Profiler profiler{cluster.catalog(), {}};
    core::Classifier clf{profiler, {}, 1};

    SweepWorld()
    {
        workload::WorkloadFactory f{stats::Rng(13131)};
        std::vector<Workload> seeds;
        for (int i = 0; i < 6; ++i)
            seeds.push_back(
                f.hadoopJob("s", f.rng().uniform(5.0, 150.0)));
        static const char *fams[] = {"spec-int", "parsec", "specjbb"};
        for (int i = 0; i < 6; ++i)
            seeds.push_back(f.singleNodeJob("s", fams[i % 3]));
        for (int i = 0; i < 2; ++i) {
            double q = f.rng().uniform(5e4, 2e5);
            seeds.push_back(f.memcachedService(
                "s", q, 2e-4, 30.0,
                std::make_shared<tracegen::FlatLoad>(q)));
        }
        clf.seedOffline(seeds, 0.0);
    }

    static SweepWorld &get()
    {
        static SweepWorld w;
        return w;
    }
};

} // namespace

TEST_P(SeedSweep, SchedulerFeasibilityInvariants)
{
    SweepWorld &w = SweepWorld::get();
    workload::WorkloadFactory f{stats::Rng(GetParam() ^ 0x3333)};
    stats::Rng rng(GetParam() ^ 0x4444);
    Workload job = f.randomWorkload("p");
    job.cost_cap_per_hour = rng.chance(0.5)
                                ? rng.uniform(0.5, 6.0)
                                : 0.0;
    WorkloadId id = w.registry.add(std::move(job));
    auto data = w.profiler.profile(w.registry.get(id), 0.0, rng);
    auto est = w.clf.classify(w.registry.get(id), data);

    core::GreedyScheduler sched(w.cluster, {}, &w.registry);
    double required = rng.uniform(0.1, 20.0) * est.reference_value;
    auto alloc = sched.allocate(w.registry.get(id), est, required, false);
    if (!alloc.has_value())
        return; // nothing placeable is a legal outcome

    EXPECT_FALSE(alloc->nodes.empty());
    EXPECT_GT(alloc->predicted_perf, 0.0);
    double cost = 0.0;
    std::set<ServerId> used;
    for (const auto &node : alloc->nodes) {
        const sim::Server &srv = w.cluster.server(node.server);
        // Fits the machine.
        EXPECT_LE(node.cores,
                  srv.coresFree() + 0); // cluster is empty here
        EXPECT_LE(node.memory_gb, srv.platform().memory_gb + 1e-9);
        // No duplicate servers.
        EXPECT_TRUE(used.insert(node.server).second);
        cost += srv.platform().cost_per_hour * double(node.cores) /
                double(srv.platform().cores);
        // Column consistent with the granted resources.
        EXPECT_EQ(est.scale_up_grid[node.scale_up_col].cores,
                  node.cores);
    }
    const Workload &placed = w.registry.get(id);
    if (placed.cost_cap_per_hour > 0.0) {
        EXPECT_LE(cost, placed.cost_cap_per_hour + 1e-9);
    }
    // Single-node workloads never get more than one server.
    if (!workload::isDistributed(placed.type)) {
        EXPECT_EQ(alloc->nodes.size(), 1u);
    }
}

TEST_P(SeedSweep, ClassifierOutputRanges)
{
    SweepWorld &w = SweepWorld::get();
    workload::WorkloadFactory f{stats::Rng(GetParam() ^ 0x5555)};
    stats::Rng rng(GetParam() ^ 0x6666);
    Workload job = f.randomWorkload("p");
    WorkloadId id = w.registry.add(std::move(job));
    auto data = w.profiler.profile(w.registry.get(id), 0.0, rng);
    auto est = w.clf.classify(w.registry.get(id), data);

    for (double v : est.scale_up_perf) {
        EXPECT_GE(v, 0.0);
        EXPECT_TRUE(std::isfinite(v));
    }
    for (double v : est.platform_factor) {
        EXPECT_GE(v, 0.0);
        EXPECT_TRUE(std::isfinite(v));
    }
    for (double v : est.scale_out_speedup)
        EXPECT_GE(v, 0.0);
    for (size_t i = 0; i < interference::kNumSources; ++i) {
        EXPECT_GE(est.tolerated[i], 0.0);
        EXPECT_LE(est.tolerated[i], 1.0);
        EXPECT_GE(est.caused_per_core[i], 0.0);
        EXPECT_LE(est.caused_per_core[i], 0.5);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u, 55u, 89u));
