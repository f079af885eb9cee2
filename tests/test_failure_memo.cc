/**
 * @file
 * Admission failure memo (core/failure_memo.hh): the journal-window
 * proof rules in isolation, GreedyScheduler::firstNodeVerdict against
 * allocate() over perturbed clusters (the two facts the proofs rest
 * on), and end-to-end replays that must place bit-identically with the
 * memo on and off while skipping most retries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "bench/report.hh"
#include "churn/churn.hh"
#include "core/classifier.hh"
#include "core/failure_memo.hh"
#include "core/manager.hh"
#include "driver/scenario.hh"
#include "sim/change_journal.hh"
#include "trace/azure.hh"
#include "trace/mapper.hh"
#include "trace/replay.hh"
#include "workload/factory.hh"

#ifdef QUASAR_VERIFY
#include "verify/verify.hh"
#endif

using namespace quasar;
using core::FailureMemo;
using core::GreedyScheduler;
using core::NodeReject;
using workload::Workload;

// ---------------------------------------------------------------
// Proof rules over a bare journal
// ---------------------------------------------------------------

namespace
{

/** Verdict stub: answers from a table, counting every question. */
struct Verdicts
{
    std::map<ServerId, NodeReject> answer;
    std::vector<ServerId> asked;

    NodeReject operator()(ServerId sid)
    {
        asked.push_back(sid);
        auto it = answer.find(sid);
        return it == answer.end() ? NodeReject::Unfit : it->second;
    }
};

} // namespace

TEST(FailureMemo, NothingChangedIsProvenWithoutAQuestion)
{
    sim::ChangeJournal journal(64);
    FailureMemo memo;
    EXPECT_FALSE(memo.provenFutile(1, journal, 5.0, Verdicts{}))
        << "no failure on record proves nothing";
    memo.noteFailure(1, journal, 5.0, FailureMemo::kNoAnchor, false);
    Verdicts v;
    EXPECT_TRUE(memo.provenFutile(1, journal, 5.0, v));
    EXPECT_TRUE(v.asked.empty());
    memo.forget(1);
    EXPECT_FALSE(memo.recorded(1));
}

TEST(FailureMemo, AsksOncePerChangedServerAndAdvances)
{
    sim::ChangeJournal journal(64);
    FailureMemo memo;
    memo.noteFailure(7, journal, 2.0, FailureMemo::kNoAnchor, true);
    for (ServerId sid : {3u, 5u, 3u, 3u, 9u, 5u})
        journal.note(sid);
    Verdicts v;
    ASSERT_TRUE(memo.provenFutile(7, journal, 2.0, v));
    std::vector<ServerId> asked = v.asked;
    std::sort(asked.begin(), asked.end());
    EXPECT_EQ(asked, (std::vector<ServerId>{3, 5, 9}));
    // The proof moved the record to the journal's end: the same
    // window is not walked again.
    Verdicts again;
    EXPECT_TRUE(memo.provenFutile(7, journal, 2.0, again));
    EXPECT_TRUE(again.asked.empty());
}

TEST(FailureMemo, AdmittingChangeOrAnchorChangeForcesTheRetry)
{
    sim::ChangeJournal journal(64);
    FailureMemo memo;
    memo.noteFailure(1, journal, 1.0, FailureMemo::kNoAnchor, true);
    memo.noteFailure(2, journal, 1.0, /*anchor=*/4, false);
    journal.note(8);
    Verdicts admits;
    admits.answer[8] = NodeReject::None;
    EXPECT_FALSE(memo.provenFutile(1, journal, 1.0, admits));

    // Server 8 rejects the anchored workload, so its record still
    // proves; once the anchor itself changes, it no longer does.
    EXPECT_TRUE(memo.provenFutile(2, journal, 1.0, Verdicts{}));
    journal.note(4);
    EXPECT_FALSE(memo.provenFutile(2, journal, 1.0, Verdicts{}));
}

TEST(FailureMemo, RequirementMustMatchOrGrowUnderMonotoneRejections)
{
    sim::ChangeJournal journal(64);
    FailureMemo memo;
    memo.noteFailure(1, journal, 10.0, FailureMemo::kNoAnchor, true);
    EXPECT_FALSE(memo.provenFutile(1, journal, 9.5, Verdicts{}))
        << "a smaller requirement may shrink the pick and fit";
    EXPECT_TRUE(memo.provenFutile(1, journal, 12.0, Verdicts{}));
    // The proof re-recorded the failure at 12: 10 is now "smaller".
    EXPECT_FALSE(memo.provenFutile(1, journal, 10.0, Verdicts{}));

    // An eviction-planning rejection does not hold at a larger
    // requirement, so after one the requirement must match exactly.
    journal.note(2);
    Verdicts evict;
    evict.answer[2] = NodeReject::Evict;
    ASSERT_TRUE(memo.provenFutile(1, journal, 12.0, evict));
    EXPECT_FALSE(memo.provenFutile(1, journal, 13.0, Verdicts{}));
    EXPECT_TRUE(memo.provenFutile(1, journal, 12.0, Verdicts{}));

    // Neither may an anchored (too-weak pick) record grow.
    memo.noteFailure(2, journal, 3.0, /*anchor=*/1, true);
    EXPECT_FALSE(memo.provenFutile(2, journal, 4.0, Verdicts{}));
    EXPECT_TRUE(memo.provenFutile(2, journal, 3.0, Verdicts{}));
}

TEST(FailureMemo, CompactedWindowForcesTheRetry)
{
    sim::ChangeJournal journal(16);
    FailureMemo memo;
    memo.noteFailure(1, journal, 1.0, FailureMemo::kNoAnchor, true);
    for (int i = 0; i < 40; ++i)
        journal.note(ServerId(i % 3));
    ASSERT_GT(journal.base(), 0u);
    Verdicts v;
    EXPECT_FALSE(memo.provenFutile(1, journal, 1.0, v));
    EXPECT_TRUE(v.asked.empty());
}

// ---------------------------------------------------------------
// firstNodeVerdict: the facts the proofs rest on
// ---------------------------------------------------------------

namespace
{

/** A classified population on a partly filled, partly broken cluster. */
struct VerdictWorld
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    profiling::Profiler profiler{cluster.catalog(), {}};
    core::Classifier clf{profiler, {}, 3};
    workload::WorkloadFactory factory;
    stats::Rng rng;
    core::EstimateTable estimates;
    core::SchedulerConfig cfg;

    explicit VerdictWorld(uint64_t seed, bool full_rescan)
        : factory{stats::Rng(seed)}, rng{seed + 1}
    {
        cfg.full_rescan = full_rescan;
        std::vector<Workload> seeds;
        for (int i = 0; i < 5; ++i)
            seeds.push_back(factory.hadoopJob(
                "seed", factory.rng().uniform(5.0, 150.0)));
        static const char *fams[] = {"spec-int", "parsec", "specjbb",
                                     "mix"};
        for (int i = 0; i < 6; ++i)
            seeds.push_back(factory.singleNodeJob("seed", fams[i % 4]));
        clf.seedOffline(seeds, 0.0);
    }

    /** A random arrival: batch, analytics, service or best-effort,
     *  sometimes cost-capped or high priority. */
    WorkloadId draw(int i)
    {
        Workload w;
        switch (i % 4) {
          case 0:
            w = factory.singleNodeJob("single", "parsec");
            break;
          case 1:
            w = factory.hadoopJob("hadoop", rng.uniform(5.0, 80.0));
            break;
          case 2: {
            double qps = rng.uniform(100.0, 400.0);
            w = factory.webService(
                "web", qps, 0.1,
                std::make_shared<tracegen::FlatLoad>(qps));
            break;
          }
          default:
            w = factory.bestEffortJob("be");
            break;
        }
        if (rng.chance(0.2))
            w.cost_cap_per_hour = rng.uniform(0.05, 2.0);
        w.priority = int(rng.uniformInt(0, 3));
        WorkloadId id = registry.add(std::move(w));
        auto data = profiler.profile(registry.get(id), 0.0, rng);
        estimates[id] = clf.classify(registry.get(id), data);
        return id;
    }

    /** Fill the cluster through the scheduler itself, then break a
     *  few machines, so residents carry real estimates. */
    void populate(const GreedyScheduler &sched, int arrivals)
    {
        for (int i = 0; i < arrivals; ++i) {
            WorkloadId id = draw(i);
            const Workload &w = registry.get(id);
            auto alloc = sched.allocate(w, estimates[id],
                                        rng.uniform(0.5, 40.0),
                                        !w.best_effort);
            if (!alloc)
                continue;
            for (const auto &[sid, victim] : alloc->evictions)
                cluster.server(sid).remove(victim);
            for (const core::AllocationNode &node : alloc->nodes) {
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
        for (size_t s = 0; s < cluster.size(); ++s)
            if (rng.chance(0.08))
                cluster.server(ServerId(s)).markDown();
    }
};

} // namespace

TEST(FirstNodeVerdict, AgreesWithAllocateOverPerturbedClusters)
{
    // allocate() fails outright iff no server admits a first node, and
    // a single-node allocation lands on the best-ranked server that
    // does — on the dirty-set path and under full_rescan.
    size_t failures = 0, placed = 0;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        for (bool full_rescan : {false, true}) {
            VerdictWorld world(seed, full_rescan);
            GreedyScheduler sched(world.cluster, world.cfg,
                                  &world.registry, world.estimates);
            world.populate(sched, 60 + int(seed) * 5);
            for (int i = 0; i < 24; ++i) {
                WorkloadId id = world.draw(i + 1);
                const Workload &w = world.registry.get(id);
                const core::WorkloadEstimate &est = world.estimates[id];
                double required = world.rng.uniform(0.1, 200.0);
                bool may_evict = !w.best_effort;
                auto alloc = sched.allocate(w, est, required, may_evict);
                ServerId first = FailureMemo::kNoAnchor;
                for (const auto &[q, sid] : sched.rankedCandidates(est)) {
                    (void)q;
                    if (sched.firstNodeVerdict(world.cluster.server(sid),
                                               w, est, required,
                                               may_evict) ==
                        NodeReject::None) {
                        first = sid;
                        break;
                    }
                }
                std::string ctx = "seed " + std::to_string(seed) +
                                  (full_rescan ? " full_rescan" : " dirty") +
                                  " probe " + std::to_string(i);
                ASSERT_EQ(alloc.has_value(), first != FailureMemo::kNoAnchor)
                    << ctx;
                if (!alloc) {
                    ++failures;
                    continue;
                }
                ++placed;
                EXPECT_EQ(alloc->nodes.front().server, first) << ctx;
            }
        }
    }
    // The sweep only proves something if both outcomes occurred.
    EXPECT_GT(failures, 10u);
    EXPECT_GT(placed, 10u);
}

TEST(FirstNodeVerdict, MonotoneRejectionsHoldAtLargerRequirements)
{
    // ...and only at larger ones: the same rejections do lift at a
    // smaller requirement, which is why the memo never proves a retry
    // whose requirement shrank.
    size_t checked = 0, lifted_smaller = 0;
    for (uint64_t seed = 21; seed <= 28; ++seed) {
        VerdictWorld world(seed, false);
        GreedyScheduler sched(world.cluster, world.cfg, &world.registry,
                              world.estimates);
        world.populate(sched, 80);
        for (int i = 0; i < 12; ++i) {
            WorkloadId id = world.draw(i + 2);
            const Workload &w = world.registry.get(id);
            const core::WorkloadEstimate &est = world.estimates[id];
            double r0 = world.rng.uniform(0.1, 50.0);
            for (size_t s = 0; s < world.cluster.size(); ++s) {
                const sim::Server &srv = world.cluster.server(ServerId(s));
                NodeReject v0 = sched.firstNodeVerdict(srv, w, est, r0,
                                                       !w.best_effort);
                if (!GreedyScheduler::holdsAtLargerRequirement(v0))
                    continue;
                ++checked;
                for (double k : {1.0000001, 1.5, 4.0, 1e3})
                    EXPECT_NE(sched.firstNodeVerdict(srv, w, est, r0 * k,
                                                     !w.best_effort),
                              NodeReject::None)
                        << "seed " << seed << " server " << s
                        << " reason " << int(v0) << " x" << k;
                if (sched.firstNodeVerdict(srv, w, est, r0 / 50.0,
                                           !w.best_effort) ==
                    NodeReject::None)
                    ++lifted_smaller;
            }
        }
    }
    EXPECT_GT(checked, 100u);
    EXPECT_GT(lifted_smaller, 0u);
}

TEST(FirstNodeVerdict, ClosedIsExactlyTheRankTimeFilter)
{
    // Closed marks the servers allocate() never draws: down, or no
    // core free even after counting what w may evict (best-effort
    // shares, and with a registry lower-priority residents). Recount
    // that from the live ledger for every server, in both modes.
    size_t closed = 0, open = 0;
    for (uint64_t seed = 31; seed <= 34; ++seed) {
        for (bool full_rescan : {false, true}) {
            VerdictWorld world(seed, full_rescan);
            GreedyScheduler sched(world.cluster, world.cfg,
                                  &world.registry, world.estimates);
            world.populate(sched, 90);
            for (int i = 0; i < 8; ++i) {
                WorkloadId id = world.draw(i + 3);
                const Workload &w = world.registry.get(id);
                const bool may_evict = !w.best_effort;
                for (size_t s = 0; s < world.cluster.size(); ++s) {
                    const sim::Server &srv =
                        world.cluster.server(ServerId(s));
                    int free = srv.coresFree();
                    for (const sim::TaskShare &t : srv.tasks())
                        if (may_evict &&
                            (t.best_effort ||
                             world.registry.get(t.workload).priority <
                                 w.priority))
                            free += t.cores;
                    const bool expect = !srv.available() || free < 1;
                    const bool got =
                        sched.firstNodeVerdict(srv, w, world.estimates[id],
                                               1.0, may_evict) ==
                        NodeReject::Closed;
                    EXPECT_EQ(got, expect)
                        << "seed " << seed << " server " << s
                        << (full_rescan ? " full_rescan" : " dirty");
                    ++(expect ? closed : open);
                }
            }
        }
    }
    EXPECT_GT(closed, 20u);
    EXPECT_GT(open, 20u);
}

TEST(FirstNodeVerdict, FullRescanReadsLiveStateNotACachedEntry)
{
    // The full_rescan oracle is the reference the journaled index is
    // checked against, so its server view must come from live state
    // on every read. A resident's registry priority decides the Prio
    // class but moves no server epoch: an oracle that read an
    // epoch-checked cache entry would miss the change below.
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    core::SchedulerConfig cfg;
    cfg.full_rescan = true;
    GreedyScheduler oracle(cluster, cfg, &registry);

    sim::Server &srv = cluster.server(0);
    Workload resident;
    resident.priority = 0;
    const WorkloadId rid = registry.add(std::move(resident));
    sim::TaskShare share;
    share.workload = rid;
    share.cores = srv.platform().cores; // no free core left
    share.memory_gb = 1.0;
    srv.place(share);

    Workload newcomer;
    newcomer.priority = 5;
    const WorkloadId nid = registry.add(std::move(newcomer));
    const Workload &w = registry.get(nid);
    core::WorkloadEstimate est;
    est.platform_factor.assign(cluster.catalog().size(), 1.0);

    // Preemptible resident (priority 0 < 5): the class filter admits.
    EXPECT_NE(oracle.firstNodeVerdict(srv, w, est, 1.0, true),
              NodeReject::Closed);
    registry.get(rid).priority = 10; // no journal note, no epoch bump
    EXPECT_EQ(oracle.firstNodeVerdict(srv, w, est, 1.0, true),
              NodeReject::Closed)
        << "full_rescan served a stale server view";
}

TEST(WalkCounts, EveryCandidateIsTakenOrRejectedOnce)
{
    VerdictWorld world(5, false);
    GreedyScheduler sched(world.cluster, world.cfg, &world.registry,
                          world.estimates);
    world.populate(sched, 90);
    const core::WalkCounts &c = sched.walkCounts();
    uint64_t rejected = 0;
    for (uint64_t n : c.rejected)
        rejected += n;
    // Every candidate drawn is either taken or passed over for exactly
    // one reason (the one that trips the knee counts as Knee).
    EXPECT_EQ(c.candidates, c.nodes + rejected);
    EXPECT_GT(c.nodes, 0u);
    EXPECT_EQ(c[NodeReject::Closed], 0u) << "the drain emits no Closed";
}

// ---------------------------------------------------------------
// End to end: identical placements, far fewer scheduler calls
// ---------------------------------------------------------------

namespace
{

struct MemoRun
{
    uint64_t placement_hash = bench::kFnvBasis;
    uint64_t decision_hash = 0;
    size_t scheduled = 0;
    size_t queued = 0;
    size_t evictions = 0;
    size_t shed = 0;
    size_t recoveries = 0;
    uint64_t schedule_calls = 0;
    size_t skipped = 0;
    size_t memo_records = 0;
    std::vector<double> waits;
#ifdef QUASAR_VERIFY
    uint64_t oracle_checks = 0;
#endif
};

enum class Stream
{
    Azure,     ///< the Azure fixture, oversubscribed ~1.5x.
    FaultChurn ///< churn with crashes/degrades and overload control.
};

MemoRun
runStream(Stream stream, bool memo, uint64_t seed)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    core::QuasarConfig cfg;
    cfg.seed = 7;
    cfg.failure_memo = memo;
    if (stream == Stream::FaultChurn) {
        cfg.overload.enabled = true;
        cfg.overload.depth_pressured = 4;
        cfg.overload.depth_overloaded = 8;
        cfg.overload.min_dwell_s = 20.0;
        cfg.overload.shed_deadline_s = 240.0;
        cfg.overload.aging_limit_s = 90.0;
    }
    core::QuasarManager mgr(cluster, registry, cfg);
    workload::WorkloadFactory seeder{stats::Rng(8)};
    mgr.seedOffline(seeder, 12);
    driver::ScenarioDriver drv(cluster, registry, mgr,
                               driver::DriverConfig{.tick_s = 10.0});

    MemoRun r;
#ifdef QUASAR_VERIFY
    const uint64_t checks_before = verify::counters().skipped_retry_checks;
#endif
    drv.setTickHook([&](double) {
        bench::foldPlacements(cluster, bench::FoldWord::CoresAllocated,
                              r.placement_hash);
    });
    if (stream == Stream::Azure) {
        trace::TraceStream s = trace::parseAzureVmFile(
            std::string(QUASAR_SOURCE_DIR) + "/tests/traces/azure_vmtable.csv");
        trace::TraceMapperConfig mcfg;
        mcfg.target_horizon_s = 400.0;
        mcfg.target_servers = 60;
        mcfg.seed = seed;
        trace::TraceReplayer replayer(trace::mapTrace(s, mcfg), seed);
        replayer.install(cluster, registry, drv);
        drv.run(mcfg.target_horizon_s);
    } else {
        churn::ChurnConfig ccfg;
        ccfg.seed = seed;
        ccfg.arrival_rate_per_s = 0.6;
        ccfg.horizon_s = 600.0;
        ccfg.server_mttf_s = 3000.0;
        ccfg.server_mttr_s = 120.0;
        churn::ChurnEngine engine(ccfg);
        engine.install(cluster, registry, drv);
        drv.run(ccfg.horizon_s);
    }

    const core::QuasarStats &st = mgr.stats();
    r.decision_hash = mgr.overload().decisionHash();
    r.scheduled = st.scheduled;
    r.queued = st.queued;
    r.evictions = st.evictions;
    r.shed = st.shed;
    r.recoveries = st.recoveries;
    r.schedule_calls = st.schedule_time.count;
    r.skipped = st.retries_skipped;
    r.memo_records = mgr.failureMemo().size();
    r.waits = mgr.admission().waitTimes().values();
#ifdef QUASAR_VERIFY
    r.oracle_checks =
        verify::counters().skipped_retry_checks - checks_before;
#endif
    return r;
}

void
expectSameOutcome(const MemoRun &on, const MemoRun &off,
                  const std::string &ctx)
{
    EXPECT_EQ(on.placement_hash, off.placement_hash) << ctx;
    EXPECT_EQ(on.decision_hash, off.decision_hash) << ctx;
    EXPECT_EQ(on.scheduled, off.scheduled) << ctx;
    EXPECT_EQ(on.queued, off.queued) << ctx;
    EXPECT_EQ(on.evictions, off.evictions) << ctx;
    EXPECT_EQ(on.shed, off.shed) << ctx;
    EXPECT_EQ(on.recoveries, off.recoveries) << ctx;
    // A skipped retry re-queues exactly like a failed one, so every
    // admitted workload waited exactly as long.
    EXPECT_EQ(on.waits, off.waits) << ctx;
    // Every skip replaces one scheduler call.
    EXPECT_EQ(on.schedule_calls + on.skipped, off.schedule_calls) << ctx;
    EXPECT_EQ(off.skipped, 0u) << ctx;
    EXPECT_EQ(off.memo_records, 0u) << ctx << ": memo off keeps records";
#ifdef QUASAR_VERIFY
    // Each skip was re-run through the full_rescan oracle (and the
    // process is alive, so none of them would have succeeded).
    EXPECT_EQ(on.oracle_checks, on.skipped) << ctx;
#endif
}

} // namespace

TEST(FailureMemoE2E, AzureReplayPlacesIdenticallyWithFewerCalls)
{
    for (uint64_t seed : {3u, 11u}) {
        MemoRun on = runStream(Stream::Azure, true, seed);
        MemoRun off = runStream(Stream::Azure, false, seed);
        std::string ctx = "azure seed " + std::to_string(seed);
        expectSameOutcome(on, off, ctx);
        // The oversubscribed replay keeps a deep queue, and most of
        // its retries are proven futile.
        EXPECT_GT(on.skipped, on.schedule_calls) << ctx;
    }
}

TEST(FailureMemoE2E, FaultAndOverloadChurnPlacesIdentically)
{
    size_t skipped = 0, recoveries = 0;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        MemoRun on = runStream(Stream::FaultChurn, true, 500 + seed);
        MemoRun off = runStream(Stream::FaultChurn, false, 500 + seed);
        expectSameOutcome(on, off, "churn seed " + std::to_string(seed));
        skipped += on.skipped;
        recoveries += on.recoveries;
    }
    EXPECT_GT(skipped, 0u);
    EXPECT_GT(recoveries, 0u) << "the stream never displaced anything";
}
