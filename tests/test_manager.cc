/**
 * @file
 * Integration tests for QuasarManager + ScenarioDriver: end-to-end
 * scheduling, target attainment, right-sizing, admission control under
 * pressure, best-effort eviction, service load adaptation, phase
 * recovery, overhead accounting, and per-workload state that ends
 * with the workload.
 */

#include <gtest/gtest.h>

#include "churn/churn.hh"
#include "core/manager.hh"
#include "driver/scenario.hh"
#include "tracegen/load_pattern.hh"
#include "workload/factory.hh"

using namespace quasar;
using workload::Workload;

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

TEST(Manager, AnalyticsJobMeetsReasonableTarget)
{
    World w;
    Workload job = w.factory.hadoopJob("job", 60.0);
    job.target = workload::WorkloadFactory::defaultAnalyticsTarget(
        job, w.cluster.catalog()[9]);
    WorkloadId id = w.registry.add(job);
    w.drv.addArrival(id, 5.0);
    w.drv.run(20000.0);
    const Workload &done = w.registry.get(id);
    ASSERT_TRUE(done.completed);
    double actual = done.completion_time - done.arrival_time;
    // Within 25% of the (slightly padded) target.
    EXPECT_LT(actual, 1.25 * done.target.completion_time_s);
}

TEST(Manager, SingleNodeJobRunsAndCompletes)
{
    World w;
    Workload job = w.factory.singleNodeJob("s", "parsec");
    WorkloadId id = w.registry.add(job);
    w.drv.addArrival(id, 1.0);
    w.drv.run(10000.0);
    EXPECT_TRUE(w.registry.get(id).completed);
    EXPECT_GE(w.mgr.stats().scheduled, 1u);
}

TEST(Manager, ServiceTracksRisingLoad)
{
    World w;
    auto load = std::make_shared<tracegen::PiecewiseLoad>(
        std::vector<std::pair<double, double>>{
            {0.0, 50.0}, {2000.0, 50.0}, {4000.0, 300.0},
            {12000.0, 300.0}});
    Workload svc = w.factory.webService("web", 300.0, 0.1, load);
    WorkloadId id = w.registry.add(svc);
    w.drv.addArrival(id, 1.0);
    w.drv.run(12000.0);
    const driver::ServiceTrace *trace = w.drv.serviceTrace(id);
    ASSERT_NE(trace, nullptr);
    // After the ramp settles the service must serve the high load.
    double late_served = trace->served_ok_qps.meanOver(8000.0, 12000.0);
    EXPECT_GT(late_served, 0.9 * 300.0);
}

TEST(Manager, ServiceShrinksWhenLoadFalls)
{
    World w;
    auto load = std::make_shared<tracegen::PiecewiseLoad>(
        std::vector<std::pair<double, double>>{
            {0.0, 300.0}, {3000.0, 300.0}, {5000.0, 40.0},
            {20000.0, 40.0}});
    Workload svc = w.factory.webService("web", 300.0, 0.1, load);
    WorkloadId id = w.registry.add(svc);
    w.drv.addArrival(id, 1.0);

    stats::TimeSeries cores;
    w.drv.setTickHook([&](double t) {
        int c = 0;
        for (ServerId s : w.cluster.serversHosting(id))
            c += w.cluster.server(s).share(id)->cores;
        cores.record(t, double(c));
    });
    w.drv.run(20000.0);
    double early = cores.meanOver(1000.0, 3000.0);
    double late = cores.meanOver(15000.0, 20000.0);
    EXPECT_LT(late, early);
    EXPECT_GT(w.mgr.stats().shrinks, 0u);
}

TEST(Manager, BestEffortEvictedForPrimary)
{
    World w;
    // Saturate with best-effort work first.
    for (int i = 0; i < 300; ++i) {
        Workload be = w.factory.bestEffortJob("be");
        be.total_work *= 50.0; // long-lived
        WorkloadId id = w.registry.add(be);
        w.drv.addArrival(id, 1.0 + 0.1 * i);
    }
    Workload job = w.factory.hadoopJob("primary", 40.0);
    job.target = workload::WorkloadFactory::defaultAnalyticsTarget(
        job, w.cluster.catalog()[9]);
    WorkloadId id = w.registry.add(job);
    w.drv.addArrival(id, 600.0);
    w.drv.run(8000.0);
    EXPECT_TRUE(w.registry.get(id).completed);
    EXPECT_GT(w.mgr.stats().evictions, 0u);
}

TEST(Manager, AdmissionQueuesWhenNothingFits)
{
    World w;
    // Fill the whole cluster with non-evictable primaries.
    for (size_t s = 0; s < w.cluster.size(); ++s) {
        Workload filler = w.factory.singleNodeJob("fill", "specjbb");
        filler.total_work = 1e18;
        WorkloadId fid = w.registry.add(filler);
        sim::Server &srv = w.cluster.server(ServerId(s));
        sim::TaskShare share;
        share.workload = fid;
        share.cores = srv.platform().cores;
        share.memory_gb = srv.platform().memory_gb;
        srv.place(share);
    }
    Workload job = w.factory.singleNodeJob("late", "parsec");
    WorkloadId id = w.registry.add(job);
    w.drv.addArrival(id, 1.0);
    w.drv.run(100.0);
    EXPECT_FALSE(w.registry.get(id).completed);
    EXPECT_TRUE(w.mgr.admission().contains(id));
}

TEST(Manager, PhaseChangeRecovered)
{
    World w;
    Workload job = w.factory.hadoopJob("phasey", 80.0);
    job.target = workload::WorkloadFactory::defaultAnalyticsTarget(
        job, w.cluster.catalog()[9], 4, 2.0);
    // Severe slowdown phase at t = 500.
    job.phase_truth = job.truth;
    job.phase_truth.base_rate *= 0.4;
    job.phase_change_time = 500.0;
    WorkloadId id = w.registry.add(job);
    w.drv.addArrival(id, 5.0);
    w.drv.run(40000.0);
    const Workload &done = w.registry.get(id);
    EXPECT_TRUE(done.completed);
    // The manager must have reacted (scale-out/up or reschedule).
    const core::QuasarStats &st = w.mgr.stats();
    EXPECT_GT(st.scale_up_adjustments + st.scale_out_adjustments +
                  st.rescheduled,
              0u);
}

TEST(Manager, OverheadAccounted)
{
    World w;
    Workload job = w.factory.singleNodeJob("s", "mix");
    WorkloadId id = w.registry.add(job);
    w.drv.addArrival(id, 1.0);
    w.drv.run(20.0);
    ASSERT_FALSE(w.registry.get(id).completed);
    const core::WorkloadEstimate *est = w.mgr.estimateFor(id);
    ASSERT_NE(est, nullptr);
    EXPECT_GT(est->profiling_seconds + est->classification_seconds, 0.0);
}

TEST(ManagerLifecycle, FinishedWorkloadsLeaveNoState)
{
    // A churn stream with departures and a flash crowd the overload
    // controller sheds from: every way a workload can end (completion,
    // departure, shed) must drop its estimate and any failure on
    // record, while placed workloads keep theirs.
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    core::QuasarConfig cfg;
    cfg.overload.enabled = true;
    cfg.overload.util_pressured = 0.85;
    cfg.overload.util_overloaded = 0.97;
    cfg.overload.depth_pressured = 4;
    cfg.overload.depth_overloaded = 8;
    cfg.overload.min_dwell_s = 20.0;
    cfg.overload.defer_base_s = 10.0;
    cfg.overload.defer_max_s = 40.0;
    cfg.overload.shed_deadline_s = 60.0;
    cfg.overload.aging_limit_s = 100.0;
    core::QuasarManager mgr(cluster, registry, cfg);
    workload::WorkloadFactory seeder{stats::Rng(4242)};
    mgr.seedOffline(seeder, 16);
    driver::ScenarioDriver drv(cluster, registry, mgr,
                               driver::DriverConfig{.tick_s = 10.0});

    churn::ChurnConfig ccfg;
    ccfg.seed = 1007;
    ccfg.arrival_rate_per_s = 0.2;
    ccfg.horizon_s = 300.0;
    ccfg.mix = {0.35, 0.15, 0.15, 0.35};
    ccfg.rate_pattern = std::make_shared<tracegen::PiecewiseLoad>(
        std::vector<std::pair<double, double>>{{0.0, 0.6},
                                               {90.0, 1.0},
                                               {140.0, 6.0},
                                               {200.0, 6.0},
                                               {240.0, 0.8},
                                               {300.0, 0.8}});
    churn::ChurnEngine engine(ccfg);
    engine.install(cluster, registry, drv);
    drv.run(600.0);

    size_t ended[4] = {0, 0, 0, 0};
    size_t placed = 0;
    for (const churn::ChurnItem &item : engine.plan()) {
        const WorkloadId id = item.id;
        const driver::WorkloadOutcome outcome =
            driver::outcomeOf(registry.get(id));
        ++ended[size_t(outcome)];
        if (outcome != driver::WorkloadOutcome::Active) {
            EXPECT_EQ(mgr.estimateFor(id), nullptr) << "workload " << id;
            EXPECT_FALSE(mgr.failureMemo().recorded(id))
                << "workload " << id;
        } else if (!cluster.serversHosting(id).empty()) {
            ++placed;
            EXPECT_NE(mgr.estimateFor(id), nullptr) << "workload " << id;
        }
    }
    EXPECT_GT(ended[size_t(driver::WorkloadOutcome::Completed)], 0u);
    EXPECT_GT(ended[size_t(driver::WorkloadOutcome::Departed)], 0u);
    EXPECT_GT(ended[size_t(driver::WorkloadOutcome::Shed)], 0u);
    EXPECT_GT(placed, 0u);
}

TEST(ManagerLifecycle, EveryPlacedWorkloadHasAnEstimate)
{
    // The manager classifies at submit, before any placement or
    // deferral, and only forget() erases an estimate. So under churn,
    // machine faults (crash re-placement) and the overload controller
    // (defers, sheds, brownouts), every hosted workload has an
    // estimate on every tick, and no finished one keeps it.
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    core::QuasarConfig cfg;
    cfg.overload.enabled = true;
    cfg.overload.util_pressured = 0.85;
    cfg.overload.util_overloaded = 0.97;
    cfg.overload.depth_pressured = 4;
    cfg.overload.depth_overloaded = 8;
    cfg.overload.min_dwell_s = 20.0;
    cfg.overload.defer_base_s = 10.0;
    cfg.overload.defer_max_s = 40.0;
    cfg.overload.shed_deadline_s = 60.0;
    cfg.overload.aging_limit_s = 100.0;
    core::QuasarManager mgr(cluster, registry, cfg);
    workload::WorkloadFactory seeder{stats::Rng(4242)};
    mgr.seedOffline(seeder, 16);
    driver::ScenarioDriver drv(cluster, registry, mgr,
                               driver::DriverConfig{.tick_s = 10.0});

    churn::ChurnConfig ccfg;
    ccfg.seed = 2029;
    ccfg.arrival_rate_per_s = 0.2;
    ccfg.horizon_s = 600.0;
    ccfg.mix = {0.35, 0.15, 0.15, 0.35};
    ccfg.rate_pattern = std::make_shared<tracegen::PiecewiseLoad>(
        std::vector<std::pair<double, double>>{{0.0, 0.6},
                                               {90.0, 1.0},
                                               {140.0, 6.0},
                                               {200.0, 6.0},
                                               {240.0, 0.8},
                                               {600.0, 0.8}});
    ccfg.server_mttf_s = 2000.0;
    ccfg.server_mttr_s = 120.0;
    churn::ChurnEngine engine(ccfg);
    engine.install(cluster, registry, drv);

    size_t ticks = 0, hosted = 0;
    drv.setTickHook([&](double t) {
        ++ticks;
        for (ServerId sid : cluster.busyServers())
            for (const sim::TaskShare &share :
                 cluster.server(sid).tasks()) {
                ++hosted;
                EXPECT_NE(mgr.estimateFor(share.workload), nullptr)
                    << "workload " << share.workload << " on server "
                    << sid << " at t=" << t;
            }
    });
    drv.run(900.0);

    size_t finished = 0;
    for (const churn::ChurnItem &item : engine.plan()) {
        if (driver::outcomeOf(registry.get(item.id)) ==
            driver::WorkloadOutcome::Active)
            continue;
        ++finished;
        EXPECT_EQ(mgr.estimateFor(item.id), nullptr)
            << "workload " << item.id;
    }
    // The run only pins the invariant if every path was taken.
    EXPECT_EQ(ticks, 90u);
    EXPECT_GT(hosted, 0u);
    EXPECT_GT(finished, 0u);
    EXPECT_GT(mgr.stats().tasks_displaced, 0u);
    EXPECT_GT(mgr.stats().shed, 0u);
    EXPECT_GT(mgr.stats().overload_deferred, 0u);
}

TEST(Manager, EstimatesClearedLookup)
{
    World w;
    EXPECT_EQ(w.mgr.estimateFor(424242), nullptr);
}

TEST(Driver, ProgressIntegrationExact)
{
    // A workload with a constant rate must complete at exactly
    // work/rate (interpolated within a tick).
    World w;
    Workload job = w.factory.singleNodeJob("s", "specjbb");
    WorkloadId id = w.registry.add(job);
    w.drv.addArrival(id, 1.0);
    w.drv.run(20000.0);
    const Workload &done = w.registry.get(id);
    ASSERT_TRUE(done.completed);
    workload::PerfOracle oracle(w.cluster, w.registry);
    // Rate can no longer be queried (placement removed), but the
    // completion time lies on a tick-interpolated boundary after the
    // arrival.
    EXPECT_GT(done.completion_time, done.arrival_time);
    EXPECT_DOUBLE_EQ(done.work_done, done.total_work);
}

TEST(Driver, UtilizationRecorded)
{
    World w;
    Workload job = w.factory.hadoopJob("j", 30.0);
    job.target = workload::WorkloadFactory::defaultAnalyticsTarget(
        job, w.cluster.catalog()[9]);
    WorkloadId id = w.registry.add(job);
    w.drv.addArrival(id, 1.0);
    w.drv.run(500.0);
    EXPECT_GT(w.drv.aggCpuUsed().size(), 0u);
    EXPECT_GT(w.drv.cpuUsedGrid().overallMean(), 0.0);
}

TEST(Driver, TickHookObservesCluster)
{
    World w;
    int calls = 0;
    w.drv.setTickHook([&](double) { ++calls; });
    w.drv.run(100.0);
    EXPECT_EQ(calls, 10);
}
