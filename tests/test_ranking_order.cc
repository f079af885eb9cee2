/**
 * @file
 * The maintained (incremental) candidate order: property tests
 * driving random mutation streams — arrivals, departures, saturating
 * best-effort and low-priority fillers, degrade, crash, recover,
 * pressure spikes — and asserting after every step that every drain
 * the maintained order emits (unfiltered, and under each rank-time
 * filter allocate uses) equals the sorted full scan's: quality
 * descending, ServerId ascending on exact ties, the same servers.
 * Also the regression test for the priority-eviction guard: hoisting
 * the priority walk behind the free < 1 filter must leave placements
 * bit-identical under both candidate sources.
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
using core::CandidateFilter;
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
    // The maintained order is the default source.
    GreedyScheduler dirty(w.cluster, SchedulerConfig{}, &w.registry);
    SchedulerConfig rescan_cfg;
    rescan_cfg.full_rescan = true;

    // Two probe estimates with different platform preferences so the
    // read-time factors actually discriminate between platforms.
    auto [hid, probe_a] = w.make(w.factory.hadoopJob("probe-a", 60.0));
    auto [sid_, probe_b] =
        w.make(w.factory.singleNodeJob("probe-b", "specjbb"));
    (void)hid;
    (void)sid_;

    // The drains allocate uses: eviction rights off and on (the
    // best-effort pool, Evict class), and priority preemption for a
    // newcomer below, equal to, between and above the priorities of
    // the non-best-effort residents (1 and 2; Prio class).
    Workload newcomer;
    std::vector<std::pair<std::string, CandidateFilter>> inputs = {
        {"everything", CandidateFilter::everything()},
        {"no may_evict", CandidateFilter::of(newcomer, false, &w.registry)},
        {"may_evict, no registry",
         CandidateFilter::of(newcomer, true, nullptr)},
    };
    for (int prio : {0, 1, 2, 3}) {
        newcomer.priority = prio;
        inputs.emplace_back("may_evict, priority " + std::to_string(prio),
                            CandidateFilter::of(newcomer, true, &w.registry));
    }

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
    // Steps at which the Evict / Prio classes changed a drain.
    int evict_steps = 0, prio_steps = 0;

    for (int step = 0; step < 60; ++step) {
        switch (w.rng.uniformInt(0, 6)) {
        case 0:
        case 1: { // arrival, decided through the incremental order
            auto [id, est] = w.make(w.factory.hadoopJob(
                "job", w.rng.uniform(10.0, 80.0)));
            w.registry.get(id).priority = 1;
            auto a = dirty.allocate(w.registry.get(id), est,
                                    w.rng.uniform(10.0, 80.0),
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
        case 5: { // a filler takes every free core of a random server
            ServerId s = ServerId(w.rng.uniformInt(
                0, int64_t(w.cluster.size()) - 1));
            sim::Server &srv = w.cluster.server(s);
            Workload filler = w.factory.singleNodeJob("filler", "parsec");
            filler.best_effort = w.rng.chance(0.5);
            filler.priority = int(w.rng.uniformInt(1, 2));
            if (!srv.available() || srv.coresFree() < 1 ||
                srv.memoryFree() < 0.5)
                break;
            WorkloadId fid = w.registry.add(std::move(filler));
            sim::TaskShare share;
            share.workload = fid;
            share.cores = srv.coresFree();
            share.memory_gb = 0.5;
            share.best_effort = w.registry.get(fid).best_effort;
            srv.place(share);
            placed.push_back({fid, {s}});
            break;
        }
        default: { // transient pressure spike + decay
            ServerId s = ServerId(w.rng.uniformInt(
                0, int64_t(w.cluster.size()) - 1));
            w.cluster.server(s).injectPressureAt(0, poke);
            if (w.rng.uniformInt(0, 1) == 0)
                w.cluster.server(s).clearInjectedPressure();
            break;
        }
        }

        // From-scratch referee: the sorted full scan has no index at
        // all (it shares no refresh code with the maintained order),
        // scores every server straight from its live state under the
        // direct rank-time predicate and sorts by rankedBefore.
        GreedyScheduler fresh(w.cluster, rescan_cfg, &w.registry);
        for (const WorkloadEstimate *probe : {&probe_a, &probe_b}) {
            std::vector<size_t> drained;
            for (const auto &[name, filter] : inputs) {
                std::string ctx =
                    "step " + std::to_string(step) + ", " + name;
                auto got = dirty.rankedCandidates(*probe, filter);
                auto want = fresh.rankedCandidates(*probe, filter);
                expectSameOrder(got, want, ctx);
                expectWellOrdered(got, ctx);
                drained.push_back(got.size());
            }
            if (::testing::Test::HasFailure())
                return; // one divergent step is diagnosis enough
            evict_steps += drained[2] > drained[1];
            prio_steps += drained[6] > drained[2];
        }
    }
    EXPECT_GT(evict_steps, 0)
        << "no drain ever emitted an Evict-class server; the may_evict "
           "inputs would be vacuous";
    EXPECT_GT(prio_steps, 0)
        << "no drain ever emitted a Prio-class server; the priority "
           "inputs would be vacuous";
}

// ---------------------------------------------------------------------
// Regression: the priority-walk hoist must not move placements
// ---------------------------------------------------------------------

TEST(RankingOrder, PriorityEvictionPlacementsIdenticalAcrossModes)
{
    RankWorld w;
    SchedulerConfig rescan_cfg;
    rescan_cfg.full_rescan = true;

    // Pin every server full with non-best-effort low-priority
    // residents: free_cores == 0 and be_cores == 0, so a candidate
    // only clears the free < 1 ranking filter through the priority
    // walk — exactly the code path the guard hoisted.
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

    auto a = dirty.allocate(job, est, 50.0, true);
    auto b = rescan.allocate(job, est, 50.0, true);
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
        dirty.allocate(job, est, 50.0, false).has_value());
}
