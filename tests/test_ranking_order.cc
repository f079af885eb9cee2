/**
 * @file
 * The maintained (incremental) candidate order: property tests
 * driving random mutation streams — arrivals, departures, capacity
 * churn, degrade, crash, recover, pressure spikes — and asserting
 * after every step that the order the dirty-mode scheduler streams
 * from its persistent per-platform structure equals a from-scratch
 * ranking sorted by rankedBefore (quality descending, ServerId
 * ascending on exact ties). Also the regression test for the
 * priority-eviction guard: hoisting priorityEvictable() behind the
 * free < 1 filter must leave placements bit-identical in both
 * decision-path modes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/classifier.hh"
#include "core/scheduler.hh"
#include "profiling/profiler.hh"
#include "workload/factory.hh"

using namespace quasar;
using core::Allocation;
using core::GreedyScheduler;
using core::SchedulerConfig;
using core::WorkloadEstimate;
using workload::Workload;

namespace
{

/** Cluster + classifier world (same idiom as the scheduler tests). */
struct RankWorld
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    profiling::Profiler profiler{cluster.catalog(), {}};
    core::Classifier clf{profiler, {}, 3};
    workload::WorkloadFactory factory{stats::Rng(91)};
    stats::Rng rng{92};

    RankWorld()
    {
        std::vector<Workload> seeds;
        for (int i = 0; i < 6; ++i)
            seeds.push_back(factory.hadoopJob(
                "seed", factory.rng().uniform(5.0, 150.0)));
        static const char *fams[] = {"spec-int", "parsec", "specjbb",
                                     "mix"};
        for (int i = 0; i < 8; ++i)
            seeds.push_back(factory.singleNodeJob("seed", fams[i % 4]));
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

/** The order contract rankedBefore defines, re-stated independently:
 *  quality strictly descending, exact-tie runs by ascending id. */
void
expectWellOrdered(const std::vector<std::pair<double, ServerId>> &r,
                  const std::string &ctx)
{
    for (size_t i = 1; i < r.size(); ++i) {
        EXPECT_GE(r[i - 1].first, r[i].first)
            << ctx << ": quality not descending at " << i;
        if (r[i - 1].first == r[i].first) {
            EXPECT_LT(r[i - 1].second, r[i].second)
                << ctx << ": tie not broken by ascending id at " << i;
        }
    }
}

void
expectSameOrder(const std::vector<std::pair<double, ServerId>> &got,
                const std::vector<std::pair<double, ServerId>> &want,
                const std::string &ctx)
{
    ASSERT_EQ(got.size(), want.size()) << ctx;
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].second, want[i].second)
            << ctx << ": id mismatch at rank " << i;
        // Bitwise quality equality, not near-equality: the maintained
        // order must apply the exact factor expression the full
        // ranking uses.
        EXPECT_EQ(got[i].first, want[i].first)
            << ctx << ": quality mismatch at rank " << i;
    }
}

void
expectSameAllocation(const std::optional<Allocation> &a,
                     const std::optional<Allocation> &b,
                     const std::string &ctx)
{
    ASSERT_EQ(a.has_value(), b.has_value()) << ctx;
    if (!a)
        return;
    ASSERT_EQ(a->nodes.size(), b->nodes.size()) << ctx;
    for (size_t i = 0; i < a->nodes.size(); ++i) {
        EXPECT_EQ(a->nodes[i].server, b->nodes[i].server) << ctx;
        EXPECT_EQ(a->nodes[i].scale_up_col, b->nodes[i].scale_up_col)
            << ctx;
        EXPECT_EQ(a->nodes[i].cores, b->nodes[i].cores) << ctx;
    }
    ASSERT_EQ(a->evictions.size(), b->evictions.size()) << ctx;
    for (size_t i = 0; i < a->evictions.size(); ++i)
        EXPECT_EQ(a->evictions[i], b->evictions[i]) << ctx;
}

} // namespace

// ---------------------------------------------------------------------
// Property: incremental order == from-scratch sort, after every step
// ---------------------------------------------------------------------

TEST(RankingOrder, IncrementalMatchesFromScratchUnderRandomMutations)
{
    RankWorld w;
    GreedyScheduler dirty(w.cluster); // the dirty-set path is the default
    SchedulerConfig rescan_cfg;
    rescan_cfg.full_rescan = true;

    // Two probe estimates with different platform preferences so the
    // read-time factors actually discriminate between platforms.
    auto [hid, probe_a] = w.make(w.factory.hadoopJob("probe-a", 60.0));
    auto [sid_, probe_b] =
        w.make(w.factory.singleNodeJob("probe-b", "specjbb"));
    (void)hid;
    (void)sid_;

    // Pristine cluster: identical idle servers of the same platform
    // guarantee exact-quality ties, so the id tie-break is exercised
    // from the very first comparison.
    auto first = dirty.rankedCandidates(probe_a);
    bool any_tie = false;
    for (size_t i = 1; i < first.size(); ++i)
        any_tie = any_tie || first[i - 1].first == first[i].first;
    EXPECT_TRUE(any_tie)
        << "fixture lost its equal-quality servers; the tie-break "
           "property below would be vacuous";

    std::vector<std::pair<WorkloadId, std::vector<ServerId>>> placed;
    interference::IVector poke = interference::zeroVector();
    poke[2] = 0.4;

    for (int step = 0; step < 60; ++step) {
        switch (w.rng.uniformInt(0, 5)) {
        case 0:
        case 1: { // arrival, decided through the incremental order
            auto [id, est] = w.make(w.factory.hadoopJob(
                "job", w.rng.uniform(10.0, 80.0)));
            auto a = dirty.allocate(w.registry.get(id), est,
                                    w.rng.uniform(10.0, 80.0), nullptr,
                                    false);
            if (a) {
                w.apply(id, *a);
                std::vector<ServerId> on;
                for (const auto &n : a->nodes)
                    on.push_back(n.server);
                placed.emplace_back(id, std::move(on));
            }
            break;
        }
        case 2: { // departure of a random resident workload
            if (placed.empty())
                break;
            size_t k = size_t(w.rng.uniformInt(
                0, int64_t(placed.size()) - 1));
            for (ServerId s : placed[k].second)
                w.cluster.server(s).remove(placed[k].first);
            placed.erase(placed.begin() + ptrdiff_t(k));
            break;
        }
        case 3: { // partial failure
            ServerId s = ServerId(w.rng.uniformInt(
                0, int64_t(w.cluster.size()) - 1));
            w.cluster.server(s).degrade(w.rng.uniform(0.1, 0.9));
            break;
        }
        case 4: { // crash (drops residents) or recovery
            ServerId s = ServerId(w.rng.uniformInt(
                0, int64_t(w.cluster.size()) - 1));
            if (w.cluster.server(s).available())
                w.cluster.server(s).markDown();
            else
                w.cluster.server(s).recover();
            break;
        }
        default: { // transient pressure spike + decay
            ServerId s = ServerId(w.rng.uniformInt(
                0, int64_t(w.cluster.size()) - 1));
            w.cluster.server(s).injectPressure(poke);
            if (w.rng.uniformInt(0, 1) == 0)
                w.cluster.server(s).clearInjectedPressure();
            break;
        }
        }

        for (const WorkloadEstimate *probe : {&probe_a, &probe_b}) {
            std::string ctx = "step " + std::to_string(step);
            auto got = dirty.rankedCandidates(*probe);
            // From-scratch referee: a fresh full_rescan scheduler has
            // no index at all (it shares no refresh code with the
            // maintained order), scores every server straight from its
            // live state and sorts by rankedBefore.
            GreedyScheduler fresh(w.cluster, rescan_cfg);
            auto want = fresh.rankedCandidates(*probe);
            expectSameOrder(got, want, ctx);
            expectWellOrdered(got, ctx);
            if (::testing::Test::HasFailure())
                return; // one divergent step is diagnosis enough
        }
    }
}

// ---------------------------------------------------------------------
// Regression: the priorityEvictable() hoist must not move placements
// ---------------------------------------------------------------------

TEST(RankingOrder, PriorityEvictionPlacementsIdenticalAcrossModes)
{
    RankWorld w;
    SchedulerConfig rescan_cfg;
    rescan_cfg.full_rescan = true;

    // Pin every server full with non-best-effort low-priority
    // residents: free_cores == 0 and be_cores == 0, so a candidate
    // only clears the free < 1 ranking filter through the
    // priorityEvictable() walk — exactly the code path the guard
    // hoisted.
    std::vector<WorkloadId> pinned;
    for (size_t s = 0; s < w.cluster.size(); ++s) {
        Workload filler = w.factory.singleNodeJob("filler", "parsec");
        filler.priority = -1;
        WorkloadId fid = w.registry.add(std::move(filler));
        pinned.push_back(fid);
        sim::Server &srv = w.cluster.server(ServerId(s));
        sim::TaskShare share;
        share.workload = fid;
        share.cores = srv.platform().cores;
        share.memory_gb = srv.platform().memory_gb / 2.0;
        srv.place(share);
    }

    auto [id, est] = w.make(w.factory.hadoopJob("vip", 50.0));
    Workload &job = w.registry.get(id);
    job.priority = 5;

    GreedyScheduler dirty(w.cluster, SchedulerConfig{}, &w.registry);
    GreedyScheduler rescan(w.cluster, rescan_cfg, &w.registry);

    auto a = dirty.allocate(job, est, 50.0, nullptr, true);
    auto b = rescan.allocate(job, est, 50.0, nullptr, true);
    expectSameAllocation(a, b, "dirty vs full_rescan");

    // The scenario must actually preempt: an allocation that fit in
    // leftover capacity would not exercise the guard at all.
    ASSERT_TRUE(a.has_value());
    ASSERT_FALSE(a->evictions.empty());
    for (const auto &[srv, victim] : a->evictions) {
        (void)srv;
        EXPECT_TRUE(std::find(pinned.begin(), pinned.end(), victim) !=
                    pinned.end())
            << "evicted a workload that is not a pinned low-priority "
               "filler";
    }

    // Without eviction rights nothing fits — confirming the fillers
    // really saturated the machines and the free < 1 guard was the
    // only gate.
    EXPECT_FALSE(
        dirty.allocate(job, est, 50.0, nullptr, false).has_value());
}
