/**
 * @file
 * Fault-injection tests: the Server health state machine, the
 * FaultInjector (scripted, zone, and stochastic events), AdmissionQueue
 * retry/backoff edge cases, and a randomized chaos suite that kills and
 * restores machines under a live QuasarManager while checking
 * conservation invariants after every step.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "baselines/autoscale.hh"
#include "baselines/framework_scheduler.hh"
#include "baselines/paragon.hh"
#include "baselines/reservation_ll.hh"
#include "bench/common.hh"
#include "core/admission.hh"
#include "core/manager.hh"
#include "driver/scenario.hh"
#include "sim/failure.hh"
#include "workload/factory.hh"

using namespace quasar;
using workload::Workload;

namespace
{

sim::TaskShare
makeShare(WorkloadId id, int cores, double mem)
{
    sim::TaskShare share;
    share.workload = id;
    share.cores = cores;
    share.memory_gb = mem;
    return share;
}

/** Records every fault callback in arrival order. */
struct RecordingListener : sim::FaultListener
{
    struct Note
    {
        char what; // 'b'efore, 'f'ailed, 'r'ecovered, 'd'egraded
        ServerId server;
        double t;
        std::vector<WorkloadId> displaced;
    };
    std::vector<Note> notes;

    void beforeServerStateChange(ServerId sid, double t) override
    {
        notes.push_back({'b', sid, t, {}});
    }
    void serverFailed(ServerId sid,
                      const std::vector<WorkloadId> &displaced,
                      double t) override
    {
        notes.push_back({'f', sid, t, displaced});
    }
    void serverRecovered(ServerId sid, double t) override
    {
        notes.push_back({'r', sid, t, {}});
    }
    void serverDegraded(ServerId sid, double, double t) override
    {
        notes.push_back({'d', sid, t, {}});
    }
};

} // namespace

// ---------------------------------------------------------------------
// Server health state machine
// ---------------------------------------------------------------------

TEST(ServerHealth, CrashDropsSharesAndBlocksPlacement)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    sim::Server &srv = cluster.server(36);
    srv.place(makeShare(7, 2, 4.0));
    srv.place(makeShare(8, 1, 2.0));
    ASSERT_TRUE(srv.checkInvariants());

    std::vector<sim::TaskShare> dropped = srv.markDown();
    EXPECT_EQ(dropped.size(), 2u);
    EXPECT_EQ(srv.state(), sim::ServerState::Down);
    EXPECT_FALSE(srv.available());
    EXPECT_DOUBLE_EQ(srv.speedFactor(), 0.0);
    EXPECT_TRUE(srv.tasks().empty());
    EXPECT_FALSE(srv.canFit(1, 1.0, 0.0));
    EXPECT_TRUE(srv.checkInvariants());

    // A second crash is a no-op.
    EXPECT_TRUE(srv.markDown().empty());

    srv.recover();
    EXPECT_EQ(srv.state(), sim::ServerState::Up);
    EXPECT_DOUBLE_EQ(srv.speedFactor(), 1.0);
    EXPECT_TRUE(srv.canFit(1, 1.0, 0.0));
}

TEST(ServerHealth, DegradeKeepsTasksAtReducedSpeed)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    sim::Server &srv = cluster.server(37);
    srv.place(makeShare(9, 2, 4.0));

    ASSERT_TRUE(srv.degrade(0.4));
    EXPECT_EQ(srv.state(), sim::ServerState::Degraded);
    EXPECT_TRUE(srv.available());
    EXPECT_DOUBLE_EQ(srv.speedFactor(), 0.4);
    EXPECT_EQ(srv.tasks().size(), 1u); // residents keep running
    EXPECT_TRUE(srv.checkInvariants());

    srv.recover();
    EXPECT_DOUBLE_EQ(srv.speedFactor(), 1.0);
    EXPECT_EQ(srv.tasks().size(), 1u);

    // A dead machine cannot be degraded.
    srv.markDown();
    EXPECT_FALSE(srv.degrade(0.4));
}

// Regression: degrade(0.0) — a fully stalled but not crashed machine
// — used to leave the server in a state its own invariant check
// rejected (and silently violated the documented (0, 1] contract in
// release builds, where the guarding assert compiles away). Zero and
// garbage speed factors must clamp into [0, 1).
TEST(ServerHealth, DegradeToZeroIsAFullStall)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    sim::Server &srv = cluster.server(35);
    srv.place(makeShare(5, 2, 4.0));

    ASSERT_TRUE(srv.degrade(0.0));
    EXPECT_EQ(srv.state(), sim::ServerState::Degraded);
    EXPECT_TRUE(srv.available()); // stalled, not crashed
    EXPECT_DOUBLE_EQ(srv.speedFactor(), 0.0);
    EXPECT_EQ(srv.tasks().size(), 1u); // residents stay put
    EXPECT_TRUE(srv.checkInvariants());

    // Negative, NaN, and >= 1 factors clamp instead of corrupting.
    ASSERT_TRUE(srv.degrade(-3.0));
    EXPECT_DOUBLE_EQ(srv.speedFactor(), 0.0);
    EXPECT_TRUE(srv.checkInvariants());
    ASSERT_TRUE(srv.degrade(std::numeric_limits<double>::quiet_NaN()));
    EXPECT_DOUBLE_EQ(srv.speedFactor(), 0.0);
    EXPECT_TRUE(srv.checkInvariants());
    ASSERT_TRUE(srv.degrade(1.5));
    EXPECT_LT(srv.speedFactor(), 1.0);
    EXPECT_EQ(srv.state(), sim::ServerState::Degraded);
    EXPECT_TRUE(srv.checkInvariants());

    srv.recover();
    EXPECT_DOUBLE_EQ(srv.speedFactor(), 1.0);
}

TEST(ServerHealth, DegradedServerRunsWorkloadsSlower)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    workload::WorkloadFactory f{stats::Rng(11)};
    WorkloadId id = registry.add(f.singleNodeJob("j", "mix"));
    cluster.server(36).place(makeShare(id, 4, 8.0));

    workload::PerfOracle oracle(cluster, registry);
    double full = oracle.currentRate(registry.get(id), 0.0);
    ASSERT_GT(full, 0.0);
    cluster.server(36).degrade(0.5);
    double slow = oracle.currentRate(registry.get(id), 0.0);
    EXPECT_NEAR(slow, 0.5 * full, 1e-9);
}

// ---------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------

TEST(FaultInjector, ScriptedCrashAndRecoveryFireInOrder)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    cluster.server(36).place(makeShare(42, 2, 4.0));

    sim::FaultInjector faults(cluster);
    faults.crashServer(10.0, 36);
    faults.recoverServer(30.0, 36);

    sim::EventQueue events;
    RecordingListener listener;
    faults.arm(events, listener);
    events.run(100.0);

    ASSERT_EQ(listener.notes.size(), 4u);
    EXPECT_EQ(listener.notes[0].what, 'b'); // settle before the crash
    EXPECT_EQ(listener.notes[1].what, 'f');
    EXPECT_DOUBLE_EQ(listener.notes[1].t, 10.0);
    ASSERT_EQ(listener.notes[1].displaced.size(), 1u);
    EXPECT_EQ(listener.notes[1].displaced[0], WorkloadId(42));
    EXPECT_EQ(listener.notes[3].what, 'r');
    EXPECT_DOUBLE_EQ(listener.notes[3].t, 30.0);

    EXPECT_EQ(faults.stats().crashes, 1u);
    EXPECT_EQ(faults.stats().recoveries, 1u);
    EXPECT_TRUE(cluster.server(36).available());
}

TEST(FaultInjector, ZoneOutageTakesDownEveryServerInZone)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    std::vector<ServerId> zone0 = cluster.serversInZone(0);
    ASSERT_FALSE(zone0.empty());

    sim::FaultInjector faults(cluster);
    faults.crashZone(5.0, 0);
    faults.recoverZone(25.0, 0);

    sim::EventQueue events;
    RecordingListener listener;
    faults.arm(events, listener);

    // Step to just past the outage.
    events.run(10.0);
    for (ServerId sid : zone0)
        EXPECT_FALSE(cluster.server(sid).available());
    EXPECT_EQ(cluster.aliveServerCount(), cluster.size() - zone0.size());
    EXPECT_EQ(cluster.downServers().size(), zone0.size());
    EXPECT_LT(cluster.aliveCores(), cluster.totalCores());

    events.run(100.0);
    for (ServerId sid : zone0)
        EXPECT_TRUE(cluster.server(sid).available());
    EXPECT_EQ(cluster.aliveServerCount(), cluster.size());
    EXPECT_EQ(faults.stats().zone_outages, 1u);
    EXPECT_EQ(faults.stats().crashes, zone0.size());
}

TEST(FaultInjector, StochasticPlanIsAFunctionOfTheSeed)
{
    sim::FaultInjectorConfig cfg;
    cfg.mttf_s = 2000.0;
    cfg.mttr_s = 300.0;
    cfg.degrade_fraction = 0.2;
    cfg.horizon_s = 20000.0;
    cfg.seed = 1234;

    auto makePlan = [&cfg]() {
        sim::Cluster cluster = sim::Cluster::localCluster();
        sim::FaultInjector faults(cluster, cfg);
        sim::EventQueue events;
        RecordingListener listener;
        faults.arm(events, listener);
        return faults.plan();
    };
    std::vector<sim::FaultEvent> a = makePlan();
    std::vector<sim::FaultEvent> b = makePlan();

    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].time, b[i].time);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].server, b[i].server);
    }
    // Sorted by time, so same-time scheduling is well defined.
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end(),
                               [](const sim::FaultEvent &x,
                                  const sim::FaultEvent &y) {
                                   return x.time < y.time;
                               }));

    // A different seed yields a different storm.
    cfg.seed = 4321;
    std::vector<sim::FaultEvent> c = makePlan();
    bool differs = c.size() != a.size();
    for (size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].time != c[i].time || a[i].server != c[i].server;
    EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------
// AdmissionQueue retry edge cases
// ---------------------------------------------------------------------

TEST(AdmissionRetry, ReenqueueAfterFailedRetryPreservesWaitStart)
{
    core::AdmissionQueue q;
    q.enqueue(1, 10.0);

    // Two failed retry passes later, admission at t=100 must charge the
    // full wait since the original enqueue at t=10.
    auto r1 = q.drainForRetry(50.0);
    ASSERT_EQ(r1, std::vector<WorkloadId>{1});
    q.enqueue(1, 50.0); // failed retry, back to pending
    auto r2 = q.drainForRetry(80.0);
    ASSERT_EQ(r2, std::vector<WorkloadId>{1});
    q.admitted(1, 100.0);

    EXPECT_TRUE(q.empty());
    ASSERT_EQ(q.waitTimes().count(), 1u);
    EXPECT_DOUBLE_EQ(q.waitTimes().values()[0], 90.0);
}

TEST(AdmissionRetry, NestedDrainNeitherDuplicatesNorDrops)
{
    core::AdmissionQueue q;
    q.enqueue(1, 0.0);
    q.enqueue(2, 0.0);

    // First drain moves {1, 2} into the in-retry set.
    auto first = q.drainForRetry(10.0);
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(q.size(), 2u);

    // Mid-pass, a fault handler enqueues 3 and triggers a nested
    // drain: only 3 may come out, and 1/2 must not be duplicated.
    q.enqueue(3, 12.0);
    auto nested = q.drainForRetry(15.0);
    ASSERT_EQ(nested, std::vector<WorkloadId>{3});
    EXPECT_EQ(q.size(), 3u);

    // The outer pass finishes: 1 is admitted, 2 and 3 fail and return
    // to pending. Nothing lost, nothing doubled.
    q.admitted(1, 20.0);
    q.enqueue(2, 20.0);
    q.enqueue(3, 20.0);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_FALSE(q.contains(1));
    EXPECT_TRUE(q.contains(2));
    EXPECT_TRUE(q.contains(3));

    auto last = q.drainForRetry(30.0);
    EXPECT_EQ(last.size(), 2u);
    q.admitted(2, 30.0);
    q.admitted(3, 30.0);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.waitTimes().count(), 3u);
}

TEST(AdmissionRetry, BackoffDoublesUpToTheCap)
{
    core::AdmissionQueue q;
    q.enqueueWithBackoff(1, 0.0, 20.0, 160.0);

    // Not due before the base delay has elapsed.
    EXPECT_TRUE(q.drainForRetry(10.0).empty());
    EXPECT_EQ(q.size(), 1u);

    double expected_delay = 20.0;
    double t = 0.0;
    for (int round = 0; round < 5; ++round) {
        t += expected_delay;
        EXPECT_TRUE(q.drainForRetry(t - 0.5).empty())
            << "round " << round;
        auto due = q.drainForRetry(t);
        ASSERT_EQ(due, std::vector<WorkloadId>{1}) << "round " << round;
        q.enqueue(1, t); // failed retry doubles the delay
        expected_delay = std::min(2.0 * expected_delay, 160.0);
    }
    // 20+40+80+160 < t, and the cap holds at 160.
    EXPECT_DOUBLE_EQ(expected_delay, 160.0);

    // The unconditional drain ignores backoff (fresh capacity).
    ASSERT_EQ(q.drainForRetry(), std::vector<WorkloadId>{1});
    q.admitted(1, t + 1.0);
    EXPECT_TRUE(q.empty());
    EXPECT_DOUBLE_EQ(q.waitTimes().values()[0], t + 1.0);
}

TEST(AdmissionRetry, AbandonRemovesWithoutWaitAccounting)
{
    core::AdmissionQueue q;
    q.enqueue(1, 0.0);
    q.enqueue(2, 0.0);
    q.drainForRetry(5.0); // both mid-retry

    q.abandon(1);               // killed while mid-retry
    q.enqueue(2, 5.0);          // back to pending
    q.abandon(2);               // completed while pending
    q.abandon(99);              // never queued: no-op

    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.contains(1));
    EXPECT_FALSE(q.contains(2));
    EXPECT_EQ(q.waitTimes().count(), 0u);
}

// ---------------------------------------------------------------------
// Quasar recovery behaviour
// ---------------------------------------------------------------------

namespace
{

struct FaultWorld
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    core::QuasarManager mgr;
    driver::ScenarioDriver drv;
    workload::WorkloadFactory factory{stats::Rng(2024)};

    explicit FaultWorld(uint64_t seed = 77)
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

TEST(FaultRecovery, DisplacedServiceIsReplacedAndCounted)
{
    FaultWorld w;
    Workload svc = w.factory.webService(
        "web", 200.0, 0.1,
        std::make_shared<tracegen::FlatLoad>(200.0));
    WorkloadId id = w.registry.add(svc);
    w.drv.addArrival(id, 1.0);

    sim::FaultInjector faults(w.cluster);
    // Kill every server hosting the service at t=500 via a tick-hook
    // script: we do not know the placement up front, so crash the
    // hosting set through scripted per-server events chosen at t=300.
    w.drv.run(300.0);
    std::vector<ServerId> hosting = w.cluster.serversHosting(id);
    ASSERT_FALSE(hosting.empty());
    for (ServerId sid : hosting)
        faults.crashServer(500.0, sid);
    w.drv.installFaults(faults);
    w.drv.run(3000.0);

    EXPECT_EQ(w.mgr.stats().server_failures, hosting.size());
    EXPECT_GE(w.mgr.stats().tasks_displaced, 1u);
    EXPECT_GE(w.mgr.stats().recoveries, 1u);
    EXPECT_GE(w.mgr.recoveryTimes().count(), 1u);
    // Re-placed promptly: displacement-to-replacement bounded.
    EXPECT_LE(w.mgr.recoveryTimes().max(), 300.0);
    // And serving again on live machines.
    std::vector<ServerId> now = w.cluster.serversHosting(id);
    ASSERT_FALSE(now.empty());
    for (ServerId sid : now)
        EXPECT_TRUE(w.cluster.server(sid).available());
}

// Regression: a batch job whose every server is fully degraded (speed
// factor 0) reports a zero progress rate; the driver's completion-time
// integration must treat that as "no progress" — never a division by
// the rate — even when the stall is followed by a crash mid-run.
TEST(FaultRecovery, CrashWhileFullyDegradedKeepsProgressFinite)
{
    FaultWorld w;
    WorkloadId id = w.registry.add(w.factory.hadoopJob("job", 80.0));
    w.drv.addArrival(id, 1.0);

    w.drv.run(300.0);
    std::vector<ServerId> hosting = w.cluster.serversHosting(id);
    ASSERT_FALSE(hosting.empty());

    sim::FaultInjector faults(w.cluster);
    for (ServerId sid : hosting) {
        faults.degradeServer(500.0, sid, 0.0); // full stall
        faults.crashServer(900.0, sid);        // then the crash
    }
    w.drv.installFaults(faults);
    w.drv.run(5000.0);

    const Workload &job = w.registry.get(id);
    EXPECT_TRUE(std::isfinite(job.work_done));
    EXPECT_LE(job.work_done, job.total_work + 1e-9);
    EXPECT_TRUE(std::isfinite(job.last_progress_update));
    if (job.completed) {
        EXPECT_TRUE(std::isfinite(job.completion_time));
        EXPECT_GE(job.completion_time, 0.0);
    }
    for (size_t s = 0; s < w.cluster.size(); ++s)
        EXPECT_TRUE(w.cluster.server(ServerId(s)).checkInvariants())
            << "server " << s;
}

TEST(FaultRecovery, RecoveryIsBitIdenticalForAFixedSeed)
{
    auto runOnce = [](uint64_t seed) {
        FaultWorld w(seed);
        Workload svc = w.factory.webService(
            "web", 150.0, 0.1,
            std::make_shared<tracegen::FlatLoad>(150.0));
        WorkloadId sid = w.registry.add(svc);
        w.drv.addArrival(sid, 1.0);
        std::vector<WorkloadId> jobs;
        for (int i = 0; i < 6; ++i)
            jobs.push_back(w.registry.add(
                w.factory.singleNodeJob("j" + std::to_string(i),
                                        "mix")));
        for (size_t i = 0; i < jobs.size(); ++i)
            w.drv.addArrival(jobs[i], 10.0 * double(i + 1));

        sim::FaultInjectorConfig fc;
        fc.mttf_s = 4000.0;
        fc.mttr_s = 400.0;
        fc.degrade_fraction = 0.25;
        fc.horizon_s = 6000.0;
        fc.seed = 0xC4A05;
        sim::FaultInjector faults(w.cluster, fc);
        faults.crashZone(900.0, 1);
        faults.recoverZone(1400.0, 1);
        w.drv.installFaults(faults);
        w.drv.run(8000.0);

        std::vector<double> sig;
        for (WorkloadId id : jobs) {
            const Workload &job = w.registry.get(id);
            sig.push_back(job.work_done);
            sig.push_back(job.completed ? job.completion_time : -1.0);
        }
        sig.push_back(double(w.mgr.stats().server_failures));
        sig.push_back(double(w.mgr.stats().tasks_displaced));
        sig.push_back(double(w.mgr.stats().recoveries));
        sig.push_back(double(faults.stats().crashes));
        sig.push_back(double(faults.stats().recoveries));
        const stats::Samples &rt = w.mgr.recoveryTimes();
        sig.push_back(double(rt.count()));
        for (double v : rt.values())
            sig.push_back(v);
        return sig;
    };

    std::vector<double> a = runOnce(77);
    std::vector<double> b = runOnce(77);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "signature index " << i;
}

// ---------------------------------------------------------------------
// Chaos suite
// ---------------------------------------------------------------------

namespace
{

/** Conservation checks run after every chaos step. */
void
checkClusterInvariants(const sim::Cluster &cluster,
                       const workload::WorkloadRegistry &registry)
{
    for (size_t s = 0; s < cluster.size(); ++s) {
        const sim::Server &srv = cluster.server(ServerId(s));
        ASSERT_TRUE(srv.checkInvariants()) << "server " << s;
        if (!srv.available()) {
            ASSERT_TRUE(srv.tasks().empty()) << "share on dead " << s;
        }
        for (const sim::TaskShare &share : srv.tasks()) {
            // No leaked shares: every share belongs to a live,
            // uncompleted workload known to the registry.
            ASSERT_TRUE(registry.contains(share.workload));
            const Workload &w = registry.get(share.workload);
            ASSERT_FALSE(w.completed)
                << "completed workload " << share.workload
                << " still holds resources on server " << s;
        }
    }
}

} // namespace

TEST(Chaos, RandomKillRestoreStormKeepsInvariants)
{
    FaultWorld w(5150);

    // A population with every recovery path: services (scale-out
    // re-placement), batch jobs (progress settlement), and a stateful
    // service (migration-aware).
    std::vector<WorkloadId> services;
    services.push_back(w.registry.add(w.factory.webService(
        "web", 150.0, 0.1,
        std::make_shared<tracegen::FlatLoad>(150.0))));
    services.push_back(w.registry.add(w.factory.memcachedService(
        "mc", 5e4, 2e-4, 24.0,
        std::make_shared<tracegen::FlatLoad>(5e4))));
    for (WorkloadId id : services)
        w.drv.addArrival(id, 1.0);
    std::vector<WorkloadId> jobs;
    for (int i = 0; i < 8; ++i) {
        jobs.push_back(w.registry.add(w.factory.singleNodeJob(
            "j" + std::to_string(i), i % 2 ? "mix" : "parsec")));
        w.drv.addArrival(jobs.back(), 20.0 * double(i + 1));
    }

    // Randomized kill/restore schedule from a fixed seed: 12 crash
    // events with staggered repairs, plus one full zone outage.
    stats::Rng chaos(0xC4A05);
    sim::FaultInjector faults(w.cluster);
    for (int k = 0; k < 12; ++k) {
        double t = 400.0 + 250.0 * double(k) + chaos.uniform(0.0, 200.0);
        ServerId victim =
            ServerId(chaos.uniformInt(0, int64_t(w.cluster.size()) - 1));
        faults.crashServer(t, victim);
        faults.recoverServer(t + chaos.uniform(80.0, 400.0), victim);
    }
    faults.crashZone(2000.0, 2);
    faults.recoverZone(2600.0, 2);
    w.drv.installFaults(faults);

    // After every tick: conservation invariants plus bounded
    // re-placement of displaced QoS workloads.
    std::unordered_map<WorkloadId, int> unplaced_ticks;
    int max_unplaced = 0;
    w.drv.setTickHook([&](double t) {
        checkClusterInvariants(w.cluster, w.registry);
        for (WorkloadId id : services) {
            const Workload &svc = w.registry.get(id);
            if (svc.completed || svc.arrival_time > t ||
                svc.arrival_time < 0.0)
                continue;
            if (w.cluster.serversHosting(id).empty())
                max_unplaced =
                    std::max(max_unplaced, ++unplaced_ticks[id]);
            else
                unplaced_ticks[id] = 0;
        }
    });
    w.drv.run(6000.0);

    // The storm actually happened...
    EXPECT_GE(w.mgr.stats().server_failures, 10u);
    EXPECT_GE(w.mgr.stats().tasks_displaced, 1u);
    EXPECT_GT(faults.stats().crashes, 0u);
    EXPECT_EQ(w.cluster.aliveServerCount(), w.cluster.size());
    // ...QoS workloads were never stranded for long (bounded ticks)...
    EXPECT_LE(max_unplaced, 30);
    for (WorkloadId id : services)
        EXPECT_FALSE(w.cluster.serversHosting(id).empty());
    // ...and the final state is clean.
    checkClusterInvariants(w.cluster, w.registry);
    // Accounting conserved: total allocated equals the sum of live
    // shares (nothing leaked onto dead machines or double-counted).
    for (size_t s = 0; s < w.cluster.size(); ++s) {
        const sim::Server &srv = w.cluster.server(ServerId(s));
        int sum = 0;
        for (const sim::TaskShare &share : srv.tasks())
            sum += share.cores;
        EXPECT_EQ(sum, srv.coresAllocated());
    }
}

TEST(Chaos, BaselineManagersSurviveTheSameStorm)
{
    // The baselines' minimal requeue path must keep them live through
    // a storm (no crashes, no stuck-forever workloads).
    auto stormOn = [](driver::ClusterManager &mgr, sim::Cluster &cluster,
                      workload::WorkloadRegistry &registry) {
        driver::ScenarioDriver drv(cluster, registry, mgr,
                                   driver::DriverConfig{.tick_s = 10.0});
        workload::WorkloadFactory f{stats::Rng(99)};
        WorkloadId svc = registry.add(f.webService(
            "web", 100.0, 0.1,
            std::make_shared<tracegen::FlatLoad>(100.0)));
        drv.addArrival(svc, 1.0);
        std::vector<WorkloadId> jobs;
        for (int i = 0; i < 4; ++i) {
            jobs.push_back(registry.add(
                f.singleNodeJob("j" + std::to_string(i), "mix")));
            drv.addArrival(jobs.back(), 20.0 * double(i + 1));
        }

        stats::Rng chaos(0xBEEF);
        sim::FaultInjector faults(cluster);
        for (int k = 0; k < 8; ++k) {
            double t = 300.0 + 300.0 * double(k);
            ServerId victim = ServerId(
                chaos.uniformInt(0, int64_t(cluster.size()) - 1));
            faults.crashServer(t, victim);
            faults.recoverServer(t + 150.0, victim);
        }
        drv.installFaults(faults);
        drv.run(5000.0);

        for (size_t s = 0; s < cluster.size(); ++s)
            ASSERT_TRUE(cluster.server(ServerId(s)).checkInvariants());
        // The service must be running again after the storm.
        EXPECT_FALSE(cluster.serversHosting(svc).empty())
            << mgr.name() << " lost the service";
    };

    {
        sim::Cluster cluster = sim::Cluster::localCluster();
        workload::WorkloadRegistry registry;
        baselines::ReservationLLManager mgr(cluster, registry);
        stormOn(mgr, cluster, registry);
    }
    {
        sim::Cluster cluster = sim::Cluster::localCluster();
        workload::WorkloadRegistry registry;
        baselines::AutoScaleManager mgr(cluster, registry);
        stormOn(mgr, cluster, registry);
    }
    {
        sim::Cluster cluster = sim::Cluster::localCluster();
        workload::WorkloadRegistry registry;
        baselines::FrameworkSelfManager mgr(cluster, registry);
        stormOn(mgr, cluster, registry);
    }
    {
        sim::Cluster cluster = sim::Cluster::localCluster();
        workload::WorkloadRegistry registry;
        baselines::ParagonManager mgr(cluster, registry);
        workload::WorkloadFactory seeder{stats::Rng(13)};
        mgr.seedOffline(bench::standardSeeds(seeder, 3), 0.0);
        stormOn(mgr, cluster, registry);
    }
}
