/**
 * @file
 * Edge-case coverage: event-queue cancellation corners, CDF-table
 * formatting, admission accounting, estimate helpers, classifier
 * model-cache amortization, monitor absolute measurements, and
 * miscellaneous string helpers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "core/classifier.hh"
#include "core/monitor.hh"
#include "sim/event_queue.hh"
#include "stats/summary.hh"
#include "workload/factory.hh"

using namespace quasar;
using workload::Workload;

TEST(EventQueueEdge, EmptySeesThroughCancelledEvents)
{
    sim::EventQueue q;
    auto h1 = q.schedule(1.0, [] {});
    auto h2 = q.schedule(2.0, [] {});
    EXPECT_FALSE(q.empty());
    h1.cancel();
    h2.cancel();
    EXPECT_TRUE(q.empty());
    q.run();
    EXPECT_EQ(q.eventsRun(), 0u);
    EXPECT_DOUBLE_EQ(q.now(), 0.0);
}

TEST(EventQueueEdge, CancelAfterFireIsNoop)
{
    sim::EventQueue q;
    int fired = 0;
    auto h = q.schedule(1.0, [&] { ++fired; });
    q.run();
    EXPECT_EQ(fired, 1);
    h.cancel(); // already fired; must not crash or double-count
    EXPECT_FALSE(h.pending());
}

TEST(EventQueueEdge, StepReturnsFalseWhenDrained)
{
    sim::EventQueue q;
    EXPECT_FALSE(q.step());
    q.schedule(1.0, [] {});
    EXPECT_TRUE(q.step());
    EXPECT_FALSE(q.step());
}

TEST(HistogramEdge, CdfTableCoversPercentiles)
{
    std::vector<double> xs;
    for (int i = 1; i <= 100; ++i)
        xs.push_back(double(i));
    std::string table = stats::formatCdfTable(xs, "value", 4);
    // Header plus five rows (0, 25, 50, 75, 100).
    EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 6);
    EXPECT_NE(table.find("value"), std::string::npos);
}

TEST(TruthEdge, CapacityQpsScalesInverselyWithCost)
{
    workload::GroundTruth t;
    t.req_cost = 1e-3;
    EXPECT_DOUBLE_EQ(t.capacityQps(5.0), 5000.0);
    t.req_cost = 2e-3;
    EXPECT_DOUBLE_EQ(t.capacityQps(5.0), 2500.0);
}

TEST(ServerEdge, StorageBindsPlacement)
{
    auto catalog = sim::localPlatforms();
    sim::Server srv(0, catalog[0]); // A: 250 GB storage
    EXPECT_TRUE(srv.canFit(1, 1.0, 250.0));
    EXPECT_FALSE(srv.canFit(1, 1.0, 251.0));
    sim::TaskShare s;
    s.workload = 1;
    s.cores = 1;
    s.memory_gb = 1.0;
    s.storage_gb = 200.0;
    srv.place(s);
    EXPECT_FALSE(srv.canFit(1, 1.0, 100.0));
    EXPECT_NEAR(srv.storageFree(), 50.0, 1e-12);
}

TEST(Monitor, AbsoluteMeasurementUnits)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    workload::WorkloadFactory f{stats::Rng(3)};

    Workload batch = f.singleNodeJob("b", "parsec");
    WorkloadId bid = registry.add(batch);
    Workload svc = f.memcachedService(
        "m", 1e5, 2e-4, 32.0, std::make_shared<tracegen::FlatLoad>(1e5));
    WorkloadId sid = registry.add(svc);

    sim::TaskShare share;
    share.workload = bid;
    share.cores = 4;
    share.memory_gb = 4.0;
    cluster.server(36).place(share);
    share.workload = sid;
    share.cores = 16;
    share.memory_gb = 32.0;
    cluster.server(37).place(share);

    core::MonitorConfig cfg;
    cfg.noise_sigma = 0.0;
    core::Monitor m(cluster, registry, cfg, stats::Rng(4));
    // Batch measured in work units/s (small), service in QPS (large).
    EXPECT_LT(m.measureAbsolute(registry.get(bid), 0.0), 100.0);
    EXPECT_GT(m.measureAbsolute(registry.get(sid), 0.0), 1e4);
}

TEST(Classifier, ModelCacheAmortizesRefits)
{
    auto catalog = sim::localPlatforms();
    profiling::Profiler profiler(catalog, {});
    core::Classifier clf(profiler, {}, 9);
    workload::WorkloadFactory f{stats::Rng(10)};
    std::vector<Workload> seeds;
    for (int i = 0; i < 10; ++i)
        seeds.push_back(f.hadoopJob("s", f.rng().uniform(5, 100)));
    clf.seedOffline(seeds, 0.0);
    stats::Rng rng(11);

    // First classification pays the fit; immediately-following ones
    // fold into the cached model and must be much faster.
    Workload w0 = f.hadoopJob("x", 40.0);
    auto d0 = profiler.profile(w0, 0.0, rng);
    auto t0 = std::chrono::steady_clock::now();
    clf.classify(w0, d0);
    auto t1 = std::chrono::steady_clock::now();
    double first = std::chrono::duration<double>(t1 - t0).count();

    double warm = 0.0;
    for (int i = 0; i < 5; ++i) {
        Workload w = f.hadoopJob("x", 40.0);
        auto d = profiler.profile(w, 0.0, rng);
        auto a = std::chrono::steady_clock::now();
        clf.classify(w, d);
        auto b = std::chrono::steady_clock::now();
        warm += std::chrono::duration<double>(b - a).count();
    }
    EXPECT_LT(warm / 5.0, first);
}

TEST(Rng, ParetoHeavyTail)
{
    stats::Rng rng(12);
    stats::Samples s;
    for (int i = 0; i < 20000; ++i)
        s.add(rng.pareto(1.0, 2.0));
    // Mean of Pareto(xm=1, alpha=2) is 2.
    EXPECT_NEAR(s.mean(), 2.0, 0.25);
    EXPECT_GT(s.max(), 10.0);
}

TEST(Snapshot, ReservedTracksAllocationNotUsage)
{
    sim::Cluster c = sim::Cluster::localCluster();
    sim::TaskShare s;
    s.workload = 1;
    s.cores = 10;
    s.memory_gb = 10.0;
    c.server(39).place(s); // usage not set -> used 0
    auto snap = c.snapshot();
    EXPECT_GT(snap.cpu_reserved, 0.0);
    EXPECT_DOUBLE_EQ(snap.cpu_used, 0.0);
}
