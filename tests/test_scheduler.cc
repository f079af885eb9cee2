/**
 * @file
 * Tests for the greedy joint allocator/assigner: target sizing,
 * quality-first server ranking, right-sizing, interference awareness
 * in both directions, best-effort eviction planning, the diminishing-
 * returns stop, and the scale-up-first vs scale-out-first ablation.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/classifier.hh"
#include "core/scheduler.hh"
#include "workload/factory.hh"

using namespace quasar;
using core::Allocation;
using core::GreedyScheduler;
using core::SchedulerConfig;
using core::WorkloadEstimate;
using workload::Workload;

namespace
{

/** Cluster + classifier world with a ready-to-use estimate. */
struct World
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    profiling::Profiler profiler{cluster.catalog(), {}};
    core::Classifier clf{profiler, {}, 3};
    workload::WorkloadFactory factory{stats::Rng(31)};
    stats::Rng rng{32};

    World()
    {
        std::vector<Workload> seeds;
        for (int i = 0; i < 6; ++i)
            seeds.push_back(factory.hadoopJob(
                "seed", factory.rng().uniform(5.0, 150.0)));
        static const char *fams[] = {"spec-int", "parsec", "specjbb",
                                     "mix"};
        for (int i = 0; i < 8; ++i)
            seeds.push_back(factory.singleNodeJob("seed", fams[i % 4]));
        for (int i = 0; i < 3; ++i) {
            double q = factory.rng().uniform(5e4, 2e5);
            seeds.push_back(factory.memcachedService(
                "seed", q, 2e-4, 30.0,
                std::make_shared<tracegen::FlatLoad>(q)));
        }
        clf.seedOffline(seeds, 0.0);
    }

    std::pair<WorkloadId, WorkloadEstimate> make(Workload w)
    {
        WorkloadId id = registry.add(std::move(w));
        auto data = profiler.profile(registry.get(id), 0.0, rng);
        return {id, clf.classify(registry.get(id), data)};
    }

    void apply(WorkloadId id, const Allocation &alloc)
    {
        Workload &w = registry.get(id);
        for (const auto &[sid, victim] : alloc.evictions)
            cluster.server(sid).remove(victim);
        for (const auto &node : alloc.nodes) {
            sim::TaskShare share;
            share.workload = id;
            share.cores = node.cores;
            share.memory_gb = node.memory_gb;
            share.storage_gb = w.storage_gb_per_node;
            share.caused = w.causedPressure(0.0, node.cores);
            share.best_effort = w.best_effort;
            cluster.server(node.server).place(share);
        }
    }
};

} // namespace

TEST(Scheduler, MeetsModestTargetWithFewNodes)
{
    World w;
    auto [id, est] = w.make(w.factory.hadoopJob("j", 30.0));
    GreedyScheduler sched(w.cluster);
    // Target achievable with roughly one good server.
    double required = 0.8 * est.scale_up_perf[0];
    for (double v : est.scale_up_perf)
        required = std::max(required, 0.4 * v);
    auto alloc = sched.allocate(w.registry.get(id), est, required, false);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_FALSE(alloc->degraded);
    EXPECT_LE(alloc->nodes.size(), 3u);
    EXPECT_GE(alloc->predicted_perf, required);
}

TEST(Scheduler, SingleNodeWorkloadGetsOneServer)
{
    World w;
    auto [id, est] = w.make(w.factory.singleNodeJob("s", "specjbb"));
    GreedyScheduler sched(w.cluster);
    auto alloc = sched.allocate(w.registry.get(id), est, 1e9,
                                false);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->nodes.size(), 1u);
    EXPECT_TRUE(alloc->degraded); // absurd target cannot be met
}

TEST(Scheduler, PrefersHighQualityPlatforms)
{
    World w;
    auto [id, est] = w.make(w.factory.hadoopJob("j", 30.0));
    GreedyScheduler sched(w.cluster);
    double required = 0.5 * est.scale_up_perf[0];
    auto alloc = sched.allocate(w.registry.get(id), est, required, false);
    ASSERT_TRUE(alloc.has_value());
    // The first node must be a high-factor platform (top third).
    const sim::Platform &p =
        w.cluster.server(alloc->nodes[0].server).platform();
    std::vector<double> factors = est.platform_factor;
    std::sort(factors.rbegin(), factors.rend());
    size_t p_idx = 0;
    for (size_t i = 0; i < w.cluster.catalog().size(); ++i)
        if (w.cluster.catalog()[i].name == p.name)
            p_idx = i;
    EXPECT_GE(est.platform_factor[p_idx], factors[3]);
}

TEST(Scheduler, RightSizesInsteadOfMaxing)
{
    World w;
    auto [id, est] = w.make(w.factory.singleNodeJob("s", "specjbb"));
    GreedyScheduler sched(w.cluster);
    // Tiny target: should not allocate a whole fat node.
    double tiny = 0.05 * est.scale_up_perf.back();
    auto alloc = sched.allocate(w.registry.get(id), est, tiny,
                                false);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_LE(alloc->nodes[0].cores, 8);
}

TEST(Scheduler, AvoidsContendedServers)
{
    World w;
    auto [id, est] = w.make(w.factory.hadoopJob("j", 30.0));
    // Pollute every J server with heavy contention.
    for (ServerId sid : w.cluster.serversOfPlatform("J")) {
        auto v = interference::zeroVector();
        v.fill(0.9);
        w.cluster.server(sid).injectPressureAt(0, v);
    }
    GreedyScheduler sched(w.cluster);
    auto alloc = sched.allocate(w.registry.get(id), est,
                                0.5 * est.scale_up_perf[0],
                                false);
    ASSERT_TRUE(alloc.has_value());
    for (const auto &node : alloc->nodes)
        EXPECT_NE(w.cluster.server(node.server).platform().name, "J");
}

TEST(Scheduler, ProtectsSensitiveResidents)
{
    World w;
    // Resident with zero interference tolerance on every server of
    // the best platform.
    auto [res_id, res_est] = w.make(w.factory.hadoopJob("res", 30.0));
    WorkloadEstimate sensitive = res_est;
    sensitive.tolerated.fill(0.0);
    for (ServerId sid : w.cluster.serversOfPlatform("J")) {
        sim::TaskShare share;
        share.workload = res_id;
        share.cores = 4;
        share.memory_gb = 8.0;
        w.cluster.server(sid).place(share);
    }

    // Newcomer that causes heavy pressure everywhere.
    auto [id, est] = w.make(w.factory.hadoopJob("new", 30.0));
    est.caused_per_core.fill(0.2);

    core::EstimateTable estimates{{res_id, sensitive}};
    GreedyScheduler sched(w.cluster, {}, nullptr, estimates);
    auto alloc = sched.allocate(w.registry.get(id), est,
                                0.3 * est.scale_up_perf[0], false);
    ASSERT_TRUE(alloc.has_value());
    for (const auto &node : alloc->nodes)
        EXPECT_NE(w.cluster.server(node.server).platform().name, "J");
}

TEST(Scheduler, ResidentEstimatesAreReadAtDecisionTime)
{
    // The scheduler reads the table it was built on at each decision,
    // not a copy taken at construction: erasing a resident's entry
    // lifts its protection, and re-inserting it restores it.
    World w;
    auto [res_id, sensitive] = w.make(w.factory.hadoopJob("res", 30.0));
    sensitive.tolerated.fill(0.0);
    const ServerId sid = w.cluster.serversOfPlatform("J").front();
    sim::TaskShare share;
    share.workload = res_id;
    share.cores = 4;
    share.memory_gb = 8.0;
    w.cluster.server(sid).place(share);
    const sim::Server &srv = w.cluster.server(sid);

    auto [id, est] = w.make(w.factory.hadoopJob("new", 30.0));
    est.caused_per_core.fill(0.2);
    const Workload &job = w.registry.get(id);
    const double required = 0.3 * est.scale_up_perf[0];

    core::EstimateTable estimates{{res_id, sensitive}};
    GreedyScheduler sched(w.cluster, {}, nullptr, estimates);
    EXPECT_EQ(sched.firstNodeVerdict(srv, job, est, required, false),
              core::NodeReject::Intolerant);
    estimates.erase(res_id);
    EXPECT_EQ(sched.firstNodeVerdict(srv, job, est, required, false),
              core::NodeReject::None);
    estimates.emplace(res_id, sensitive);
    EXPECT_EQ(sched.firstNodeVerdict(srv, job, est, required, false),
              core::NodeReject::Intolerant);
    auto alloc = sched.allocate(job, est, required, false);
    ASSERT_TRUE(alloc.has_value());
    for (const auto &node : alloc->nodes)
        EXPECT_NE(node.server, sid);
}

TEST(Scheduler, PlansEvictionsOfBestEffort)
{
    World w;
    // Fill every server completely with best-effort tasks.
    WorkloadId be_base = 1000;
    for (size_t s = 0; s < w.cluster.size(); ++s) {
        sim::Server &srv = w.cluster.server(ServerId(s));
        sim::TaskShare share;
        share.workload = be_base + s;
        share.cores = srv.platform().cores;
        share.memory_gb = srv.platform().memory_gb;
        share.best_effort = true;
        srv.place(share);
    }
    auto [id, est] = w.make(w.factory.hadoopJob("j", 20.0));
    GreedyScheduler sched(w.cluster);
    auto with_evict = sched.allocate(w.registry.get(id), est,
                                     0.4 * est.scale_up_perf[0], true);
    ASSERT_TRUE(with_evict.has_value());
    EXPECT_FALSE(with_evict->evictions.empty());
    // Every eviction is on a server the allocation actually uses.
    for (const auto &[sid, victim] : with_evict->evictions) {
        bool used = false;
        for (const auto &node : with_evict->nodes)
            used = used || node.server == sid;
        EXPECT_TRUE(used);
    }
    // Without eviction rights nothing can be placed.
    auto without = sched.allocate(w.registry.get(id), est,
                                  0.4 * est.scale_up_perf[0],
                                  false);
    EXPECT_FALSE(without.has_value());
}

namespace
{

/** Pack every server with one full-size best-effort resident. */
void
fillWithBestEffort(sim::Cluster &cluster, WorkloadId base = 1000)
{
    for (size_t s = 0; s < cluster.size(); ++s) {
        sim::Server &srv = cluster.server(ServerId(s));
        sim::TaskShare share;
        share.workload = base + s;
        share.cores = srv.platform().cores;
        share.memory_gb = srv.platform().memory_gb;
        share.best_effort = true;
        srv.place(share);
    }
}

/** Check eviction plan hygiene: no entry for an unused server, no
 *  share consumed twice, no server picked twice. */
void
expectEvictionPlanConsistent(const sim::Cluster &cluster,
                             const Allocation &alloc)
{
    for (const auto &[sid, victim] : alloc.evictions) {
        bool used = false;
        for (const auto &node : alloc.nodes)
            used = used || node.server == sid;
        EXPECT_TRUE(used) << "stale eviction of " << victim
                          << " on unused server " << sid;
    }
    auto pairs = alloc.evictions;
    std::sort(pairs.begin(), pairs.end());
    EXPECT_TRUE(std::adjacent_find(pairs.begin(), pairs.end()) ==
                pairs.end())
        << "the same share is evicted twice in one schedule call";
    std::vector<ServerId> servers;
    for (const auto &node : alloc.nodes)
        servers.push_back(node.server);
    std::sort(servers.begin(), servers.end());
    EXPECT_TRUE(std::adjacent_find(servers.begin(), servers.end()) ==
                servers.end())
        << "a server was picked twice in one allocation";
    (void)cluster;
}

} // namespace

// Regression: eviction planning used to append to the allocation's
// eviction list *before* the cost-cap check, so a candidate rejected
// for cost left its victims in the plan — the manager would then
// evict best-effort tasks for a node that was never placed.
TEST(Scheduler, CostCapRejectionLeavesNoStaleEvictions)
{
    World w;
    fillWithBestEffort(w.cluster);
    auto [id, est] = w.make(w.factory.hadoopJob("j", 60.0));
    Workload &job = w.registry.get(id);
    double max_cost = 0.0;
    for (const sim::Platform &p : w.cluster.catalog())
        max_cost = std::max(max_cost, p.cost_per_hour);
    // Room for roughly two fat nodes; with an unreachable target the
    // walk keeps going and cost-rejects every further candidate after
    // its evictions were planned.
    job.cost_cap_per_hour = 2.5 * max_cost;
    SchedulerConfig cfg;
    // Disable the diminishing-returns stop so the walk reaches the
    // cost-rejected candidates instead of breaking at the knee.
    cfg.min_marginal_efficiency = 0.0;
    GreedyScheduler sched(w.cluster, cfg);
    auto alloc = sched.allocate(job, est, 1e12, true);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_FALSE(alloc->nodes.empty());
    expectEvictionPlanConsistent(w.cluster, *alloc);
}

// Regression: with fault-zone spreading the candidate list was walked
// as two concatenated copies, so a server cost-rejected in the strict
// pass had its evictions planned a second time in the relaxed pass —
// duplicate (server, victim) entries double-counted the same share.
TEST(Scheduler, SpreadingRelaxationDoesNotDoubleCountEvictions)
{
    World w;
    fillWithBestEffort(w.cluster);
    auto [id, est] = w.make(w.factory.hadoopJob("j", 60.0));
    Workload &job = w.registry.get(id);
    double max_cost = 0.0;
    for (const sim::Platform &p : w.cluster.catalog())
        max_cost = std::max(max_cost, p.cost_per_hour);
    job.cost_cap_per_hour = 2.5 * max_cost;
    SchedulerConfig cfg;
    cfg.min_marginal_efficiency = 0.0; // reach the rejected candidates
    GreedyScheduler sched(w.cluster, cfg);
    auto alloc = sched.allocate(job, est, 1e12, true, true);
    ASSERT_TRUE(alloc.has_value());
    expectEvictionPlanConsistent(w.cluster, *alloc);
}

TEST(Scheduler, DiminishingReturnsBoundsFootprint)
{
    World w;
    auto [id, est] = w.make(w.factory.hadoopJob("j", 60.0));
    GreedyScheduler sched(w.cluster);
    // Impossible target: the scheduler must still stop at the
    // scale-out knee instead of grabbing all 40 servers.
    auto alloc = sched.allocate(w.registry.get(id), est, 1e12,
                                false);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_TRUE(alloc->degraded);
    EXPECT_LT(alloc->nodes.size(), w.cluster.size());
}

TEST(Scheduler, ScaleOutFirstAblationSpreadsThin)
{
    World w;
    auto [id, est] = w.make(w.factory.hadoopJob("j", 60.0));
    double required = 1.5 * est.scale_up_perf[0];

    SchedulerConfig up_first;
    GreedyScheduler a(w.cluster, up_first);
    auto up = a.allocate(w.registry.get(id), est, required,
                         false);

    SchedulerConfig out_first = up_first;
    out_first.scale_up_first = false;
    GreedyScheduler b(w.cluster, out_first);
    auto out = b.allocate(w.registry.get(id), est, required,
                          false);

    ASSERT_TRUE(up.has_value());
    ASSERT_TRUE(out.has_value());
    // Scale-out-first uses more, smaller nodes.
    EXPECT_GE(out->nodes.size(), up->nodes.size());
    if (!out->nodes.empty() && !up->nodes.empty()) {
        EXPECT_LE(out->nodes[0].cores, up->nodes[0].cores);
    }
}

TEST(Scheduler, KnobsConsistentAcrossNodes)
{
    World w;
    auto [id, est] = w.make(w.factory.hadoopJob("j", 60.0));
    GreedyScheduler sched(w.cluster);
    double best = 0.0;
    for (double v : est.scale_up_perf)
        best = std::max(best, v);
    auto alloc = sched.allocate(w.registry.get(id), est, 3.0 * best, false);
    ASSERT_TRUE(alloc.has_value());
    ASSERT_GT(alloc->nodes.size(), 1u);
    for (const auto &node : alloc->nodes)
        EXPECT_TRUE(est.scale_up_grid[node.scale_up_col].knobs ==
                    alloc->knobs);
}

TEST(Scheduler, AllocationTotalsConsistent)
{
    Allocation alloc;
    alloc.nodes.push_back({0, 0, 4, 8.0, 1.0});
    alloc.nodes.push_back({1, 0, 8, 16.0, 2.0});
    EXPECT_EQ(alloc.totalCores(), 12);
    EXPECT_DOUBLE_EQ(alloc.totalMemoryGb(), 24.0);
}

TEST(Scheduler, StorageDemandRespected)
{
    World w;
    Workload big = w.factory.cassandraService(
        "c", 5e3, 30e-3, 4000.0,
        std::make_shared<tracegen::FlatLoad>(5e3));
    big.storage_gb_per_node = 1500.0; // only I/J (2 TB) can host
    auto [id, est] = w.make(std::move(big));
    GreedyScheduler sched(w.cluster);
    auto alloc = sched.allocate(w.registry.get(id), est, 1e3,
                                false);
    ASSERT_TRUE(alloc.has_value());
    for (const auto &node : alloc->nodes)
        EXPECT_GE(w.cluster.server(node.server).platform().storage_gb,
                  1500.0);
}
