/**
 * @file
 * Soak evidence for the QUASAR_VERIFY layer: run a real manager +
 * driver scenario and assert the verification hooks actually fired —
 * sweeps every tick, a shadow check per incremental-mode decision,
 * zero divergences. A silently-disabled oracle proves nothing, so the
 * acceptance claim ("the chaos and churn suites pass under the shadow
 * oracle") is only meaningful if these counters are shown to move.
 *
 * In non-verify builds every test here skips: the layer is compiled
 * out and there is nothing to observe.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/classifier.hh"
#include "core/manager.hh"
#include "driver/scenario.hh"
#include "profiling/profiler.hh"
#include "workload/factory.hh"

#ifdef QUASAR_VERIFY
#include "verify/verify.hh"
#endif

using namespace quasar;
using workload::Workload;

#ifndef QUASAR_VERIFY

TEST(Verify, LayerCompiledOut)
{
    GTEST_SKIP() << "QUASAR_VERIFY is OFF; the verification layer is "
                    "compiled out of this build";
}

#else

namespace
{

struct World
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    core::QuasarManager mgr;
    driver::ScenarioDriver drv;
    workload::WorkloadFactory factory{stats::Rng(2024)};

    explicit World(uint64_t seed = 77)
        : mgr(cluster, registry,
              [seed] {
                  core::QuasarConfig c;
                  c.seed = seed;
                  return c;
              }()),
          drv(cluster, registry, mgr,
              driver::DriverConfig{.tick_s = 10.0})
    {
        workload::WorkloadFactory seeder{stats::Rng(4242)};
        mgr.seedOffline(seeder, 20);
    }
};

} // namespace

TEST(Verify, ScenarioSoakExercisesSweepsAndShadowOracle)
{
    const verify::Counters before = verify::counters();

    World w;
    for (int i = 0; i < 6; ++i) {
        Workload job =
            w.factory.hadoopJob("job", 30.0 + 15.0 * i);
        job.target = workload::WorkloadFactory::defaultAnalyticsTarget(
            job, w.cluster.catalog()[9]);
        w.drv.addArrival(w.registry.add(job), 5.0 + 40.0 * i);
    }
    w.drv.run(4000.0);

    const verify::Counters &after = verify::counters();
    // The driver sweeps the cluster once per tick.
    EXPECT_GT(after.cluster_sweeps, before.cluster_sweeps)
        << "tick sweep never ran";
    // The manager's scheduler runs on the default dirty-set path, so
    // every placement decision above went through the shadow oracle.
    EXPECT_GT(after.shadow_checks, before.shadow_checks)
        << "shadow oracle never ran";
    // The process is alive, so no divergence aborted us — but assert
    // the counter anyway so a future soft-fail refactor can't rot.
    EXPECT_EQ(after.shadow_divergences, 0u);
}

TEST(Verify, PerfOracleMemoHitsAreRechecked)
{
    // Every tick reads each placed job's rate for progress and again
    // for normalized performance, so a run takes memo hits; in this
    // build each hit is recomputed and compared bitwise (a mismatch
    // aborts inside PerfOracle::currentRate).
    const uint64_t before = workload::PerfOracle::memoChecks();

    World w;
    for (int i = 0; i < 3; ++i) {
        Workload job = w.factory.hadoopJob("job", 40.0 + 20.0 * i);
        job.target = workload::WorkloadFactory::defaultAnalyticsTarget(
            job, w.cluster.catalog()[9]);
        w.drv.addArrival(w.registry.add(job), 5.0 + 30.0 * i);
    }
    w.drv.run(1500.0);

    EXPECT_GT(workload::PerfOracle::memoChecks(), before)
        << "no memo hit was re-checked";
}

TEST(Verify, FullRescanModeTakesNoShadowChecks)
{
    // The oracle re-runs incremental decisions through full_rescan;
    // a full_rescan primary must NOT be shadowed (it would only
    // compare the legacy path against itself, and recursing into a
    // second scheduler per decision would double every cost).
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    profiling::Profiler profiler{cluster.catalog(), {}};
    core::Classifier clf{profiler, {}, 3};
    workload::WorkloadFactory factory{stats::Rng(91)};
    stats::Rng rng{92};

    std::vector<Workload> seeds;
    for (int i = 0; i < 8; ++i)
        seeds.push_back(
            factory.hadoopJob("seed", factory.rng().uniform(5.0, 150.0)));
    clf.seedOffline(seeds, 0.0);

    const uint64_t before = verify::counters().shadow_checks;

    core::SchedulerConfig cfg;
    cfg.full_rescan = true;
    core::GreedyScheduler legacy(cluster, cfg, &registry);

    WorkloadId id = registry.add(factory.hadoopJob("probe", 45.0));
    auto data = profiler.profile(registry.get(id), 0.0, rng);
    core::WorkloadEstimate est = clf.classify(registry.get(id), data);
    legacy.allocate(registry.get(id), est, 45.0, false);

    EXPECT_EQ(verify::counters().shadow_checks, before)
        << "full_rescan decision was shadow-checked";
}

TEST(Verify, IndexAuditsFireAndCount)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    core::GreedyScheduler dirty(cluster); // dirty-set path default
    core::WorkloadEstimate est;
    est.platform_factor.assign(cluster.catalog().size(), 1.0);

    const uint64_t before = verify::counters().index_audits;
    (void)dirty.rankedCandidates(est); // primes the maintained order
    dirty.auditIndexCoherenceNow();    // unsampled, must pass clean
    EXPECT_GT(verify::counters().index_audits, before)
        << "the forced audit did not run (or did not count itself)";
}

TEST(Verify, MutationWithoutNoteAbortsIndexAudit)
{
    // The coherence the incremental order depends on: every
    // placement-relevant mutation bumps version() AND lands in the
    // journal. Detach the journal from one server, mutate it, and the
    // next audit must catch the stale index entry and abort.
    sim::Cluster cluster = sim::Cluster::localCluster();
    core::GreedyScheduler dirty(cluster);
    core::WorkloadEstimate est;
    est.platform_factor.assign(cluster.catalog().size(), 1.0);
    (void)dirty.rankedCandidates(est); // primes index + order

    cluster.server(5).attachJournal(nullptr);
    cluster.server(5).degrade(0.5); // version bump, no journal note
    EXPECT_DEATH(
        {
            // The journal has no entry for server 5, so the replay
            // refreshes nothing; the unsampled audit then sees the
            // stale entry.
            (void)dirty.rankedCandidates(est);
            dirty.auditIndexCoherenceNow();
        },
        "not journaled");
}

// ---------------------------------------------------------------
// Per-mutator death tests, generated from the shared mutator list
// (src/verify/journaled_mutators.def). The static analyzer derives
// the same list from the Server class scan (ctest: lint_mutator_sync)
// so the two enforcement layers cannot silently diverge; this suite
// proves each listed mutator actually trips the runtime audit when
// its journal note is suppressed.
// ---------------------------------------------------------------

namespace
{

/** The workload placed ahead of time for share-targeting mutators. */
constexpr WorkloadId kResidentWorkload = 1;

sim::TaskShare
smallShare(WorkloadId w)
{
    sim::TaskShare s;
    s.workload = w;
    s.cores = 1;
    s.memory_gb = 1.0;
    s.storage_gb = 1.0;
    return s;
}

/** Apply the named mutation to `srv`. FAILs on an unknown name, so a
 *  .def entry with no dispatch arm here cannot pass silently. */
void
applyMutatorByName(sim::Server &srv, const std::string &name)
{
    if (name == "clearInjectedPressure") {
        srv.clearInjectedPressure();
    } else if (name == "degrade") {
        ASSERT_TRUE(srv.degrade(0.5));
    } else if (name == "injectPressureAt") {
        srv.injectPressureAt(0, interference::IVector{});
    } else if (name == "markDown") {
        (void)srv.markDown();
    } else if (name == "place") {
        srv.place(smallShare(kResidentWorkload + 1));
    } else if (name == "recover") {
        srv.recover();
    } else if (name == "remove") {
        ASSERT_TRUE(srv.remove(kResidentWorkload));
    } else if (name == "resize") {
        ASSERT_TRUE(srv.resize(kResidentWorkload, 2, 2.0));
    } else if (name == "setIsolation") {
        ASSERT_TRUE(srv.setIsolation(
            kResidentWorkload,
            static_cast<interference::Source>(0), true));
    } else {
        FAIL() << "journaled_mutators.def lists '" << name
               << "' but applyMutatorByName has no dispatch arm "
                  "for it";
    }
}

/** Prime the incremental index, detach the journal, apply the named
 *  mutation and assert the next audit aborts on the stale entry. */
void
mutatorTripsAudit(const std::string &name)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    core::GreedyScheduler dirty(cluster); // dirty-set path default
    core::WorkloadEstimate est;
    est.platform_factor.assign(cluster.catalog().size(), 1.0);

    sim::Server &srv = cluster.server(5);
    // Share-targeting mutators need a resident share; place it while
    // the journal is still attached so the setup itself is coherent.
    if (name == "remove" || name == "resize" ||
        name == "setIsolation")
        srv.place(smallShare(kResidentWorkload));

    (void)dirty.rankedCandidates(est); // primes index + order
    srv.attachJournal(nullptr);
    applyMutatorByName(srv, name); // version bump, no journal note
    if (::testing::Test::HasFatalFailure())
        return;
    EXPECT_DEATH(
        {
            (void)dirty.rankedCandidates(est);
            dirty.auditIndexCoherenceNow();
        },
        "not journaled");
}

} // namespace

#define QUASAR_JOURNALED_MUTATOR(name)                                 \
    TEST(MutatorDeathSync, name) { mutatorTripsAudit(#name); }
#include "verify/journaled_mutators.def"
#undef QUASAR_JOURNALED_MUTATOR

#endif // QUASAR_VERIFY
