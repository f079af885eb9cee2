/**
 * @file
 * Tests for the scenario driver itself: arrival delivery, service
 * trace recording, completion notification to the manager, utilization
 * grid coverage, and record_every thinning — using a scripted manager
 * so driver behaviour is isolated from Quasar's policies.
 */

#include <gtest/gtest.h>

#include "driver/scenario.hh"
#include "workload/factory.hh"
#include "workload/queueing.hh"

using namespace quasar;
using workload::Workload;

namespace
{

/** A manager that places every submission on a fixed server. */
class ScriptedManager : public driver::ClusterManager
{
  public:
    ScriptedManager(sim::Cluster &cluster,
                    workload::WorkloadRegistry &registry, ServerId where,
                    int cores)
        : cluster_(cluster), registry_(registry), where_(where),
          cores_(cores) {}

    void onSubmit(WorkloadId id, double t) override
    {
        submissions.push_back({id, t});
        Workload &w = registry_.get(id);
        sim::TaskShare share;
        share.workload = id;
        share.cores = cores_;
        share.memory_gb = 8.0;
        share.caused = w.causedPressure(t, cores_);
        cluster_.server(where_).place(share);
        w.last_progress_update = t;
    }
    void onTick(double) override { ++ticks; }
    void onCompletion(WorkloadId id, double t) override
    {
        completions.push_back({id, t});
    }
    std::string name() const override { return "scripted"; }

    std::vector<std::pair<WorkloadId, double>> submissions;
    std::vector<std::pair<WorkloadId, double>> completions;
    int ticks = 0;

  private:
    sim::Cluster &cluster_;
    workload::WorkloadRegistry &registry_;
    ServerId where_;
    int cores_;
};

} // namespace

TEST(Driver, ArrivalsDeliveredAtTheirTimes)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    ScriptedManager mgr(cluster, registry, 36, 2);
    driver::ScenarioDriver drv(cluster, registry, mgr,
                               driver::DriverConfig{.tick_s = 10.0});
    workload::WorkloadFactory f{stats::Rng(1)};
    WorkloadId a = registry.add(f.singleNodeJob("a", "mix"));
    WorkloadId b = registry.add(f.singleNodeJob("b", "mix"));
    drv.addArrival(a, 25.0);
    drv.addArrival(b, 5.0);
    drv.run(100.0);
    ASSERT_EQ(mgr.submissions.size(), 2u);
    // Delivered in time order regardless of insertion order.
    EXPECT_EQ(mgr.submissions[0].first, b);
    EXPECT_DOUBLE_EQ(mgr.submissions[0].second, 5.0);
    EXPECT_EQ(mgr.submissions[1].first, a);
    EXPECT_DOUBLE_EQ(mgr.submissions[1].second, 25.0);
    EXPECT_DOUBLE_EQ(registry.get(a).arrival_time, 25.0);
}

TEST(Driver, CompletionInterpolatedWithinTick)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    ScriptedManager mgr(cluster, registry, 36, 4);
    driver::ScenarioDriver drv(cluster, registry, mgr,
                               driver::DriverConfig{.tick_s = 10.0});
    workload::WorkloadFactory f{stats::Rng(2)};
    Workload job = f.singleNodeJob("j", "specjbb");
    WorkloadId id = registry.add(job);
    drv.addArrival(id, 0.0);
    drv.run(100000.0);
    const Workload &w = registry.get(id);
    ASSERT_TRUE(w.completed);
    // Completion time = arrival + work / (constant) rate, to within
    // numerical tolerance — even though progress is tick-integrated.
    workload::PerfOracle oracle(cluster, registry);
    // Re-place to recompute the rate it ran at.
    sim::TaskShare share;
    share.workload = id;
    share.cores = 4;
    share.memory_gb = 8.0;
    cluster.server(36).place(share);
    double rate = oracle.currentRate(w, 0.0);
    EXPECT_NEAR(w.completion_time, w.total_work / rate, 1e-6);
    // Completion callback carried the interpolated time.
    ASSERT_EQ(mgr.completions.size(), 1u);
    EXPECT_DOUBLE_EQ(mgr.completions[0].second, w.completion_time);
}

TEST(Driver, ServiceTraceConsistentWithQueueingModel)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    ScriptedManager mgr(cluster, registry, 36, 16);
    driver::ScenarioDriver drv(cluster, registry, mgr,
                               driver::DriverConfig{.tick_s = 10.0});
    workload::WorkloadFactory f{stats::Rng(3)};
    Workload mc = f.memcachedService(
        "m", 1e5, 2e-4, 32.0,
        std::make_shared<tracegen::FlatLoad>(1e5));
    WorkloadId id = registry.add(mc);
    drv.addArrival(id, 0.0);
    drv.run(500.0);
    const driver::ServiceTrace *tr = drv.serviceTrace(id);
    ASSERT_NE(tr, nullptr);
    ASSERT_GT(tr->offered_qps.size(), 10u);
    workload::PerfOracle oracle(cluster, registry);
    double cap = oracle.serviceCapacityQps(registry.get(id), 100.0);
    for (size_t i = 0; i < tr->offered_qps.size(); ++i) {
        EXPECT_DOUBLE_EQ(tr->offered_qps.valueAt(i), 1e5);
        EXPECT_NEAR(tr->qos_fraction.valueAt(i),
                    workload::fractionMeetingQos(1e5, cap, 2e-4),
                    1e-9);
    }
    // Batch traces do not exist.
    WorkloadId other = registry.add(f.singleNodeJob("s", "mix"));
    EXPECT_EQ(drv.serviceTrace(other), nullptr);
}

TEST(Driver, RecordEveryThinsSeries)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    ScriptedManager mgr(cluster, registry, 36, 2);
    driver::ScenarioDriver drv(cluster, registry, mgr,
                               driver::DriverConfig{.tick_s = 10.0,
                                                    .record_every = 5});
    drv.run(1000.0); // 100 ticks
    EXPECT_EQ(mgr.ticks, 100);
    EXPECT_EQ(drv.aggCpuUsed().size(), 20u);
}

TEST(Driver, UnplacedBatchMakesNoProgress)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;

    // A manager that never places anything.
    class NullManager : public driver::ClusterManager
    {
      public:
        void onSubmit(WorkloadId, double) override {}
        void onTick(double) override {}
        void onCompletion(WorkloadId, double) override {}
        std::string name() const override { return "null"; }
    } null_mgr;

    driver::ScenarioDriver drv(cluster, registry, null_mgr,
                               driver::DriverConfig{.tick_s = 10.0});
    workload::WorkloadFactory f{stats::Rng(4)};
    WorkloadId id = registry.add(f.singleNodeJob("s", "mix"));
    drv.addArrival(id, 0.0);
    drv.run(1000.0);
    EXPECT_FALSE(registry.get(id).completed);
    EXPECT_DOUBLE_EQ(registry.get(id).work_done, 0.0);
    EXPECT_DOUBLE_EQ(drv.meanNormalizedPerf(id), 0.0);
}
