/**
 * @file
 * The dirty-set walk's bucket drop (DESIGN.md §9): once a drawn
 * candidate is rejected Unfit or Knob, the walk passes over the rest
 * of its order bucket until the next node is taken. Every case
 * compares the dirty allocation with the full_rescan oracle's field
 * for field (doubles bitwise) and checks that the drop only removes
 * draws: dirty candidates + skipped == full_rescan candidates.
 *
 * The hand-built cases use one flat platform and a hand-written
 * analytics estimate whose grid makes the Knob verdict move with the
 * residual target:
 *   c0: 8 cores / 16 GB, knobs K1, perf 10
 *   c1: 4 cores /  8 GB, knobs K2, perf 6
 *   c2: 2 cores /  4 GB, knobs K1, perf 2
 * with linear scale-out and headroom 1, so the per-node need after k
 * nodes is exactly the target minus their perf.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "core/classifier.hh"
#include "core/scheduler.hh"
#include "workload/factory.hh"

using namespace quasar;
using core::Allocation;
using core::GreedyScheduler;
using core::NodeReject;
using core::SchedulerConfig;
using core::WalkCounts;
using core::WorkloadEstimate;
using workload::Workload;
using workload::WorkloadType;

namespace
{

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Bitwise equality of two allocation decisions. */
void
expectSameAllocation(const std::optional<Allocation> &a,
                     const std::optional<Allocation> &b,
                     const std::string &ctx)
{
    ASSERT_EQ(a.has_value(), b.has_value()) << ctx;
    if (!a)
        return;
    EXPECT_EQ(a->degraded, b->degraded) << ctx;
    EXPECT_TRUE(sameBits(a->predicted_perf, b->predicted_perf)) << ctx;
    EXPECT_TRUE(a->knobs == b->knobs) << ctx;
    ASSERT_EQ(a->nodes.size(), b->nodes.size()) << ctx;
    for (size_t i = 0; i < a->nodes.size(); ++i) {
        const core::AllocationNode &x = a->nodes[i], &y = b->nodes[i];
        EXPECT_EQ(x.server, y.server) << ctx << " node " << i;
        EXPECT_EQ(x.scale_up_col, y.scale_up_col) << ctx << " node " << i;
        EXPECT_EQ(x.cores, y.cores) << ctx << " node " << i;
        EXPECT_TRUE(sameBits(x.memory_gb, y.memory_gb))
            << ctx << " node " << i;
        EXPECT_TRUE(sameBits(x.predicted_node_perf, y.predicted_node_perf))
            << ctx << " node " << i;
        EXPECT_EQ(x.socket, y.socket) << ctx << " node " << i;
    }
    EXPECT_EQ(a->evictions, b->evictions) << ctx;
}

/** Walk counts added by one allocate. */
WalkCounts
delta(const WalkCounts &after, const WalkCounts &before)
{
    WalkCounts d;
    d.candidates = after.candidates - before.candidates;
    d.nodes = after.nodes - before.nodes;
    d.skipped = after.skipped - before.skipped;
    for (size_t r = 0; r < d.rejected.size(); ++r)
        d.rejected[r] = after.rejected[r] - before.rejected[r];
    return d;
}

/**
 * The drop removes only draws the oracle rejects Unfit, Knob or
 * Hosted: everything else in the histogram matches exactly.
 */
void
expectOnlyDrawsRemoved(const WalkCounts &dirty, const WalkCounts &full,
                       const std::string &ctx)
{
    EXPECT_EQ(dirty.candidates + dirty.skipped, full.candidates) << ctx;
    EXPECT_EQ(dirty.nodes, full.nodes) << ctx;
    EXPECT_EQ(full.skipped, 0u) << ctx;
    auto dropped = [](const WalkCounts &c) {
        return c[NodeReject::Unfit] + c[NodeReject::Knob] +
               c[NodeReject::Hosted];
    };
    EXPECT_EQ(dropped(dirty) + dirty.skipped, dropped(full)) << ctx;
    for (NodeReject r : {NodeReject::Zone, NodeReject::Intolerant,
                         NodeReject::Knee, NodeReject::Evict,
                         NodeReject::Cost})
        EXPECT_EQ(dirty[r], full[r]) << ctx << " reason " << int(r);
}

sim::Platform
flatPlatform()
{
    sim::Platform p;
    p.name = "P";
    p.cores = 16;
    p.memory_gb = 32.0;
    p.storage_gb = 100.0;
    p.cost_per_hour = 1.0;
    p.contention_capacity.fill(1.0);
    return p;
}

/** A single-platform cluster with a registry, plus the two schedulers
 *  under test sharing one config. */
struct SkipWorld
{
    sim::Cluster cluster;
    workload::WorkloadRegistry registry;
    SchedulerConfig cfg;

    SkipWorld(int servers, int zones)
        : cluster({flatPlatform()}, {servers}, zones)
    {
        cfg.headroom = 1.0;
    }

    WorkloadId add(WorkloadType type, int priority)
    {
        Workload w;
        w.name = "w";
        w.type = type;
        w.priority = priority;
        return registry.add(std::move(w));
    }

    /** A registered non-best-effort resident with zero caused
     *  pressure: it takes capacity without moving the server's
     *  quality. */
    void pin(ServerId sid, int cores, double memory_gb, int priority)
    {
        sim::TaskShare share;
        share.workload = add(WorkloadType::SingleNode, priority);
        share.cores = cores;
        share.memory_gb = memory_gb;
        cluster.server(sid).place(share);
    }

    /** A 0-core, zero-pressure share of a workload the registry does
     *  not know: the server differs from an empty one in free memory
     *  only (same quality, homed cores and prio_any). */
    void occupyMemory(ServerId sid, double memory_gb)
    {
        sim::TaskShare share;
        share.workload = WorkloadId(1000000 + size_t(sid));
        share.memory_gb = memory_gb;
        cluster.server(sid).place(share);
    }

    struct Run
    {
        std::optional<Allocation> dirty, full;
        WalkCounts dirty_walk, full_walk;
    };

    Run allocate(const Workload &w, const WorkloadEstimate &est,
                 double required, bool may_evict, bool spread = false)
    {
        SchedulerConfig full_cfg = cfg;
        full_cfg.full_rescan = true;
        GreedyScheduler dirty(cluster, cfg, &registry);
        GreedyScheduler full(cluster, full_cfg, &registry);
        Run r;
        r.dirty =
            dirty.allocate(w, est, required, may_evict, spread);
        r.full = full.allocate(w, est, required, may_evict, spread);
        r.dirty_walk = dirty.walkCounts();
        r.full_walk = full.walkCounts();
        return r;
    }
};

workload::FrameworkKnobs
knobs(int mappers)
{
    workload::FrameworkKnobs k;
    k.mappers_per_node = mappers;
    return k;
}

/** The analytics estimate of the file comment (one platform). */
WorkloadEstimate
knobEstimate()
{
    WorkloadEstimate est;
    est.type = WorkloadType::Analytics;
    est.scale_up_grid = {{8, 16.0, knobs(8)},
                         {4, 8.0, knobs(4)},
                         {2, 4.0, knobs(8)}};
    est.scale_up_perf = {10.0, 6.0, 2.0};
    est.scale_out_grid = {1, 2, 4, 8, 16};
    est.scale_out_speedup = {1.0, 2.0, 4.0, 8.0, 16.0};
    est.platform_factor = {1.0};
    est.tolerated.fill(1.0);
    return est;
}

std::vector<ServerId>
nodeServers(const Allocation &a)
{
    std::vector<ServerId> out;
    for (const core::AllocationNode &n : a.nodes)
        out.push_back(n.server);
    return out;
}

} // namespace

// After the first node fixes knobs K1, the residual need (13 - 10 = 3)
// picks c1 (K2) on every empty server, which has no K1 column at its
// size: the whole bucket is Knob. Every third server keeps 2 GB free
// (Unfit for every column) at the same quality.
TEST(BucketSkip, KnobFixedWalkDropsIdenticalServers)
{
    SkipWorld world(64, 1);
    for (int s = 2; s < 64; s += 3)
        world.occupyMemory(ServerId(s), 30.0);
    WorkloadId id = world.add(WorkloadType::Analytics, 0);
    const Workload &w = world.registry.get(id);
    SkipWorld::Run r = world.allocate(w, knobEstimate(), 13.0, false);

    expectSameAllocation(r.dirty, r.full, "knob-fixed walk");
    ASSERT_TRUE(r.dirty.has_value());
    EXPECT_EQ(nodeServers(*r.dirty), std::vector<ServerId>{0});
    EXPECT_TRUE(r.dirty->degraded);
    expectOnlyDrawsRemoved(r.dirty_walk, r.full_walk, "knob-fixed walk");
    EXPECT_EQ(r.full_walk.candidates, 64u);
    // Server 0 taken, servers 1 (Knob) and 2 (Unfit) drawn once each;
    // the other 61 members of the two buckets are never drawn.
    EXPECT_EQ(r.dirty_walk.candidates, 3u);
    EXPECT_EQ(r.dirty_walk.skipped, 61u);
    EXPECT_EQ(r.dirty_walk[NodeReject::Knob], 1u);
    EXPECT_EQ(r.dirty_walk[NodeReject::Unfit], 1u);
}

// Servers 1, 2, 4, 5, 7, ... keep 12 GB free (bucket A), servers 0,
// 3, 6, ... are empty (bucket B), all at one quality. Need 21.5:
//  - 0 (B) takes c0 (K1, perf 10); the need drops to 11.5;
//  - 1 (A) can fit c1/c2 only, picks c1 (K2): Knob, A is dropped;
//    the stream parks A's cursor at 2;
//  - 3 (B) takes c0; the need drops to 1.5 and a new epoch starts.
//    A's cursor has B's quality, so it resumes after id 3;
//  - 4 (A) now picks c2 (K1) and is taken.
// Finishing A's cursor at the take instead would place on 6.
TEST(BucketSkip, EqualQualityResumeDrawsLaterIdsOfDroppedBucket)
{
    SkipWorld world(12, 1);
    for (int s = 0; s < 12; ++s)
        if (s % 3 != 0)
            world.occupyMemory(ServerId(s), 20.0);
    WorkloadId id = world.add(WorkloadType::Analytics, 0);
    const Workload &w = world.registry.get(id);
    const WorkloadEstimate est = knobEstimate();

    // Precondition: one quality for every server, so the walk
    // interleaves the two buckets by id.
    GreedyScheduler ranker(world.cluster, world.cfg, &world.registry);
    auto ranked = ranker.rankedCandidates(est);
    ASSERT_EQ(ranked.size(), 12u);
    for (const auto &[q, sid] : ranked)
        ASSERT_TRUE(sameBits(q, ranked.front().first)) << sid;

    SkipWorld::Run r = world.allocate(w, est, 21.5, false);
    expectSameAllocation(r.dirty, r.full, "equal-quality resume");
    ASSERT_TRUE(r.dirty.has_value());
    EXPECT_EQ(nodeServers(*r.dirty), (std::vector<ServerId>{0, 3, 4}));
    EXPECT_EQ(r.dirty->nodes[2].scale_up_col, 2u);
    expectOnlyDrawsRemoved(r.dirty_walk, r.full_walk,
                           "equal-quality resume");
    EXPECT_EQ(r.dirty_walk.skipped, 1u) << "server 2 is passed over";
}

// Every server holds two 0-core, non-best-effort residents: one at
// priority 1, one at priority 5, with 28 GB between them, so all
// servers share free capacity, prio_any (1) and quality, i.e. one
// bucket. On "Y" servers the priority-5 resident holds the memory, on
// "X" servers the priority-1 one. A priority-3 job may evict only the
// priority-1 resident, so the priority walk frees 28 GB on X and
// nothing on Y: Y is Unfit for the 8 GB column, X fits. The walk must
// not drop the bucket on Y's rejection.
TEST(BucketSkip, MayEvictBelowPrioAnyNeverDrops)
{
    SkipWorld world(6, 1);
    for (int s = 0; s < 6; ++s) {
        bool x = s == 4;
        world.pin(ServerId(s), 0, x ? 28.0 : 0.0, 1);
        world.pin(ServerId(s), 0, x ? 0.0 : 28.0, 5);
    }
    WorkloadId id = world.add(WorkloadType::SingleNode, 3);
    const Workload &w = world.registry.get(id);
    WorkloadEstimate est;
    est.type = WorkloadType::SingleNode;
    est.scale_up_grid = {{2, 8.0, {}}};
    est.scale_up_perf = {5.0};
    est.platform_factor = {1.0};
    est.tolerated.fill(1.0);

    SkipWorld::Run r = world.allocate(w, est, 5.0, true);
    expectSameAllocation(r.dirty, r.full, "may_evict, prio_any < w");
    ASSERT_TRUE(r.dirty.has_value());
    EXPECT_EQ(nodeServers(*r.dirty), std::vector<ServerId>{4});
    ASSERT_EQ(r.dirty->evictions.size(), 1u);
    EXPECT_EQ(r.dirty->evictions[0].first, ServerId(4));
    expectOnlyDrawsRemoved(r.dirty_walk, r.full_walk,
                           "may_evict, prio_any < w");
    EXPECT_EQ(r.dirty_walk.skipped, 0u);
    EXPECT_EQ(r.dirty_walk[NodeReject::Unfit], 4u);

    // Without eviction rights the ledger walk is off and every server
    // is Unfit alike: one draw drops the whole bucket.
    SkipWorld::Run no_evict = world.allocate(w, est, 5.0, false);
    expectSameAllocation(no_evict.dirty, no_evict.full, "no may_evict");
    EXPECT_FALSE(no_evict.dirty.has_value());
    expectOnlyDrawsRemoved(no_evict.dirty_walk, no_evict.full_walk,
                           "no may_evict");
    EXPECT_EQ(no_evict.dirty_walk.candidates, 1u);
    EXPECT_EQ(no_evict.dirty_walk.skipped, 5u);
}

// Two fault zones (zone = id % 2): empty servers in zone 0, 12-GB-free
// servers (the resume case's bucket A) in zone 1. Pass one takes 0,
// rejects every zone-1 server Knob at need 11.5 and every other
// zone-0 server Zone. Pass two rewinds: 2 takes c0, and at need 1.5
// server 3 (zone 1) takes c2. Had pass one dropped bucket A, server 3
// would be missing from the rewound list and 4 would be taken.
TEST(BucketSkip, SpreadFaultZonesRewindWalksWithoutDrops)
{
    SkipWorld world(12, 2);
    for (int s = 1; s < 12; s += 2)
        world.occupyMemory(ServerId(s), 20.0);
    WorkloadId id = world.add(WorkloadType::Analytics, 0);
    const Workload &w = world.registry.get(id);

    SkipWorld::Run r = world.allocate(w, knobEstimate(), 21.5, false, true);
    expectSameAllocation(r.dirty, r.full, "fault-zone rewind");
    ASSERT_TRUE(r.dirty.has_value());
    EXPECT_EQ(nodeServers(*r.dirty), (std::vector<ServerId>{0, 2, 3}));
    expectOnlyDrawsRemoved(r.dirty_walk, r.full_walk, "fault-zone rewind");
    EXPECT_EQ(r.dirty_walk.skipped, 0u);
    EXPECT_EQ(r.dirty_walk.candidates, r.full_walk.candidates);
}

// Classifier-built estimates on the heterogeneous local cluster under
// a stream of committed placements: best-effort fillers, low-priority
// residents (some holding 0 cores) and mixed jobs, with and without
// eviction rights. Both schedulers see every commit.
TEST(BucketSkip, RandomizedStreamMatchesFullRescan)
{
    uint64_t skipped = 0;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        sim::Cluster cluster = sim::Cluster::localCluster();
        workload::WorkloadRegistry registry;
        profiling::Profiler profiler{cluster.catalog(), {}};
        core::Classifier clf{profiler, {}, 3};
        workload::WorkloadFactory factory{stats::Rng(seed)};
        stats::Rng rng(seed * 7 + 1);
        std::vector<Workload> seeds;
        for (int i = 0; i < 4; ++i)
            seeds.push_back(factory.hadoopJob(
                "seed", factory.rng().uniform(5.0, 150.0)));
        seeds.push_back(factory.singleNodeJob("seed", "parsec"));
        seeds.push_back(factory.singleNodeJob("seed", "specjbb"));
        clf.seedOffline(seeds, 0.0);

        Workload filler = factory.bestEffortJob("filler");
        for (size_t s = 0; s < cluster.size(); ++s) {
            sim::Server &srv = cluster.server(ServerId(s));
            if (!rng.chance(0.5))
                continue;
            Workload low = factory.singleNodeJob("low", "spec-int");
            low.priority = int(rng.uniformInt(-1, 2));
            WorkloadId lid = registry.add(std::move(low));
            sim::TaskShare share;
            share.workload = lid;
            int quarter = std::max(1, srv.platform().cores / 4);
            share.cores =
                rng.chance(0.3) ? 0 : int(rng.uniformInt(1, quarter));
            share.memory_gb = srv.platform().memory_gb / 8.0;
            share.caused = rng.chance(0.5)
                               ? filler.causedPressure(0.0, share.cores)
                               : interference::IVector{};
            if (srv.canFit(share.cores, share.memory_gb, 0.0))
                srv.place(share);
        }

        SchedulerConfig full_cfg;
        full_cfg.full_rescan = true;
        GreedyScheduler dirty(cluster, SchedulerConfig{}, &registry);
        GreedyScheduler full(cluster, full_cfg, &registry);
        for (int p = 0; p < 16; ++p) {
            Workload job;
            switch (rng.uniformInt(0, 3)) {
            case 0:
            case 1:
                job = factory.hadoopJob("job", rng.uniform(20.0, 400.0));
                break;
            case 2:
                job = factory.singleNodeJob("one", "mix");
                break;
            default:
                job = factory.bestEffortJob("be");
                break;
            }
            job.priority = int(rng.uniformInt(0, 2));
            WorkloadId id = registry.add(std::move(job));
            const Workload &w = registry.get(id);
            auto data = profiler.profile(w, 0.0, rng);
            WorkloadEstimate est = clf.classify(w, data);
            double target =
                w.total_work > 0.0 ? w.total_work / 300.0 : 1.0;
            bool may_evict = p % 2 == 0;
            WalkCounts d0 = dirty.walkCounts(), f0 = full.walkCounts();
            auto a = dirty.allocate(w, est, target, may_evict);
            auto b = full.allocate(w, est, target, may_evict);
            std::string ctx = "seed " + std::to_string(seed) +
                              " placement " + std::to_string(p);
            expectSameAllocation(a, b, ctx);
            expectOnlyDrawsRemoved(delta(dirty.walkCounts(), d0),
                                   delta(full.walkCounts(), f0), ctx);
            if (!a)
                continue;
            for (const auto &[sid, victim] : a->evictions)
                cluster.server(sid).remove(victim);
            for (const core::AllocationNode &node : a->nodes) {
                sim::TaskShare share;
                share.workload = id;
                share.cores = node.cores;
                share.memory_gb = node.memory_gb;
                share.storage_gb = w.storage_gb_per_node;
                share.caused = w.causedPressure(0.0, node.cores);
                share.best_effort = w.best_effort;
                share.socket = node.socket;
                cluster.server(node.server).place(share);
            }
        }
        skipped += dirty.walkCounts().skipped;
    }
    EXPECT_GT(skipped, 0u) << "the sweep never exercised a drop";
}
