/**
 * @file
 * Tests for the baseline managers: the reservation-error model and
 * reservation sizing, least-loaded placement, the Paragon
 * assignment-only manager, the auto-scaling policy, and the framework
 * self-scheduler — plus comparative sanity (Quasar beats LL on a
 * shared scenario).
 */

#include <gtest/gtest.h>

#include <bit>

#include "baselines/autoscale.hh"
#include "baselines/framework_scheduler.hh"
#include "baselines/paragon.hh"
#include "bench/common.hh"
#include "bench/report.hh"
#include "core/manager.hh"
#include "driver/scenario.hh"
#include "sim/failure.hh"

using namespace quasar;
using namespace quasar::baselines;
using workload::Workload;

TEST(ReservationModel, RatioDistributionMatchesFig1d)
{
    tracegen::ReservationModel model;
    stats::Rng rng(5);
    int under = 0, right = 0, over = 0;
    double max_ratio = 0.0, min_ratio = 1e9;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double r = model.sampleRatio(rng);
        max_ratio = std::max(max_ratio, r);
        min_ratio = std::min(min_ratio, r);
        if (r < 0.9)
            ++under;
        else if (r <= 1.1)
            ++right;
        else
            ++over;
    }
    EXPECT_NEAR(double(under) / n, 0.2, 0.03);
    // 70% draw from the over-sized branch; a sliver of them lands
    // within 1.1x (mild padding), so ~63% exceed it.
    EXPECT_NEAR(double(over) / n, 0.63, 0.04);
    EXPECT_LE(max_ratio, 10.0);
    EXPECT_GE(min_ratio, 1.0 / 5.0 - 1e-9);
}

TEST(ReservationModel, AppliedToCoresAndMemory)
{
    tracegen::ReservationModel model;
    stats::Rng rng(6);
    EXPECT_GE(model.reservedCores(4, rng), 1);
    EXPECT_GE(model.reservedMemoryGb(8.0, rng), 0.5);
}

TEST(Reservations, TrueNeedScalesWithTarget)
{
    auto catalog = sim::localPlatforms();
    workload::WorkloadFactory f{stats::Rng(7)};
    Workload small = f.hadoopJob("s", 10.0);
    small.target = workload::PerformanceTarget::completionTime(
        10000.0, small.total_work);
    Workload big = small;
    big.target = workload::PerformanceTarget::completionTime(
        small.total_work / (20.0 * small.target.rate),
        small.total_work);
    Reservation rs = trueNeed(small, catalog);
    Reservation rb = trueNeed(big, catalog);
    EXPECT_GE(rb.nodes, rs.nodes);
}

TEST(Reservations, ServiceSizedForQpsTarget)
{
    auto catalog = sim::localPlatforms();
    workload::WorkloadFactory f{stats::Rng(8)};
    Workload mc = f.memcachedService(
        "m", 8e5, 2e-4, 100.0,
        std::make_shared<tracegen::FlatLoad>(8e5));
    Reservation r = trueNeed(mc, catalog);
    EXPECT_GE(r.nodes, 2);
}

TEST(Reservations, LeastLoadedPlacementSpreads)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    workload::WorkloadFactory f{stats::Rng(9)};
    Workload w1 = f.singleNodeJob("a", "mix");
    Workload w2 = f.singleNodeJob("b", "mix");
    WorkloadId id1 = registry.add(w1);
    WorkloadId id2 = registry.add(w2);
    Reservation res{1, 2, 2.0};
    auto s1 = placeLeastLoaded(cluster, leastLoadedOrder(cluster),
                               registry.get(id1), 0.0, res, false);
    auto s2 = placeLeastLoaded(cluster, leastLoadedOrder(cluster),
                               registry.get(id2), 0.0, res, false);
    ASSERT_EQ(s1.size(), 1u);
    ASSERT_EQ(s2.size(), 1u);
    EXPECT_NE(s1[0], s2[0]); // second placement avoids the loaded box
}

TEST(ReservationLL, PlacesAndQueues)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    ReservationLLManager mgr(cluster, registry, 10);
    driver::ScenarioDriver drv(cluster, registry, mgr,
                               driver::DriverConfig{.tick_s = 10.0});
    workload::WorkloadFactory f{stats::Rng(11)};
    std::vector<WorkloadId> ids;
    for (int i = 0; i < 12; ++i) {
        WorkloadId id = registry.add(f.singleNodeJob("s", "mix"));
        ids.push_back(id);
        drv.addArrival(id, 1.0 + i);
    }
    drv.run(8000.0);
    int done = 0;
    for (WorkloadId id : ids)
        done += registry.get(id).completed;
    EXPECT_GE(done, 10);
    EXPECT_NE(mgr.reservationFor(ids[0]), nullptr);
}

TEST(Paragon, AvoidsInterferingPlacement)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    ParagonManager mgr(cluster, registry, 12);
    workload::WorkloadFactory seeder{stats::Rng(13)};
    mgr.seedOffline(bench::standardSeeds(seeder, 3), 0.0);
    driver::ScenarioDriver drv(cluster, registry, mgr,
                               driver::DriverConfig{.tick_s = 10.0});
    workload::WorkloadFactory f{stats::Rng(14)};
    std::vector<WorkloadId> ids;
    for (int i = 0; i < 10; ++i) {
        WorkloadId id = registry.add(f.singleNodeJob("s", "parsec"));
        ids.push_back(id);
        drv.addArrival(id, 1.0 + i);
    }
    drv.run(6000.0);
    int done = 0;
    for (WorkloadId id : ids)
        done += registry.get(id).completed;
    EXPECT_GE(done, 8);
    EXPECT_NE(mgr.estimateFor(ids[0]), nullptr);
}

TEST(AutoScale, ScalesOutUnderLoadAndBackIn)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    AutoScaleManager mgr(cluster, registry, AutoScaleConfig{}, 15);
    driver::ScenarioDriver drv(cluster, registry, mgr,
                               driver::DriverConfig{.tick_s = 10.0});
    workload::WorkloadFactory f{stats::Rng(16)};
    auto load = std::make_shared<tracegen::PiecewiseLoad>(
        std::vector<std::pair<double, double>>{{0.0, 100.0},
                                               {2000.0, 100.0},
                                               {3000.0, 600.0},
                                               {8000.0, 600.0},
                                               {9000.0, 60.0},
                                               {20000.0, 60.0}});
    Workload svc = f.webService("w", 600.0, 0.1, load);
    WorkloadId id = registry.add(svc);
    drv.addArrival(id, 1.0);

    stats::TimeSeries instances;
    drv.setTickHook([&](double t) {
        instances.record(t, mgr.instancesOf(id));
    });
    drv.run(20000.0);
    double low = instances.meanOver(500.0, 2000.0);
    double high = instances.meanOver(6000.0, 8000.0);
    double late = instances.meanOver(15000.0, 20000.0);
    EXPECT_GT(high, low);
    EXPECT_LT(late, high);
    EXPECT_GE(instances.meanOver(0.0, 20000.0), 1.0);
}

namespace
{

/**
 * AutoScale on the local cluster with every core held by a blocker (a
 * distributed job, one share per server), so a batch job submitted at
 * t = 1 queues until the blocker is killed at t = 205, between two
 * ticks. Neither finishes on its own.
 */
struct BlockedAutoScale
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    AutoScaleManager mgr{cluster, registry, AutoScaleConfig{}, 41};
    driver::ScenarioDriver drv{cluster, registry, mgr,
                               driver::DriverConfig{.tick_s = 10.0}};
    WorkloadId blocker;
    WorkloadId job;

    BlockedAutoScale()
    {
        workload::WorkloadFactory f{stats::Rng(42)};
        Workload b = f.hadoopJob("blocker", 10.0);
        b.total_work = 1e18;
        blocker = registry.add(b);
        for (size_t s = 0; s < cluster.size(); ++s) {
            sim::Server &srv = cluster.server(ServerId(s));
            srv.place(nodeShare(registry.get(blocker), 0.0,
                                srv.platform().cores, 1.0, false));
        }
        Workload j = f.singleNodeJob("job", "mix");
        j.total_work = 1e18;
        job = registry.add(j);
        drv.addArrival(job, 1.0);
        drv.events().schedule(205.0,
                              [this] { drv.killWorkload(blocker, 205.0); });
    }

    /** The job's share on the cluster, or null while it waits. */
    const sim::TaskShare *jobShare() const
    {
        for (size_t s = 0; s < cluster.size(); ++s)
            for (const sim::TaskShare &t :
                 cluster.server(ServerId(s)).tasks())
                if (t.workload == job)
                    return &t;
        return nullptr;
    }
};

} // namespace

// A waiting job keeps the reservation drawn at its submit: retries
// neither redraw it nor consume the manager's RNG stream.
TEST(AutoScale, QueuedJobKeepsItsSubmitReservation)
{
    BlockedAutoScale s;
    // The job is the manager's first draw from its seed.
    stats::Rng rng(41);
    const Reservation want = userReservation(
        s.registry.get(s.job), s.cluster.catalog(),
        tracegen::ReservationModel{}, rng);
    int waiting_ticks = 0;
    s.drv.setTickHook([&](double) {
        if (s.jobShare())
            return;
        ++waiting_ticks;
        const Reservation *res = s.mgr.reservationFor(s.job);
        ASSERT_NE(res, nullptr);
        EXPECT_EQ(res->cores_per_node, want.cores_per_node);
        EXPECT_EQ(res->memory_per_node_gb, want.memory_per_node_gb);
    });
    s.drv.run(300.0);
    EXPECT_EQ(waiting_ticks, 20);
    const sim::TaskShare *share = s.jobShare();
    ASSERT_NE(share, nullptr);
    EXPECT_EQ(share->cores, want.cores_per_node);
    EXPECT_EQ(share->memory_gb, want.memory_per_node_gb);
}

// Capacity a completion frees is offered to the queue at once, not at
// the next tick (a kill reaches the manager as a completion).
TEST(AutoScale, CompletionPlacesQueuedJobAtOnce)
{
    BlockedAutoScale s;
    s.drv.run(300.0);
    ASSERT_NE(s.jobShare(), nullptr);
    EXPECT_EQ(s.registry.get(s.job).first_placed_at, 205.0);
}

TEST(FrameworkScheduler, DatasetDrivenReservation)
{
    workload::WorkloadFactory f{stats::Rng(17)};
    Workload small = f.hadoopJob("s", 5.0);
    Workload big = f.hadoopJob("b", 200.0);
    Reservation rs = frameworkReservation(small);
    Reservation rb = frameworkReservation(big);
    EXPECT_LT(rs.nodes, rb.nodes);
    EXPECT_EQ(rs.cores_per_node, 8);
    workload::FrameworkKnobs def = hadoopDefaultKnobs();
    EXPECT_EQ(def.mappers_per_node, 8);
    EXPECT_EQ(def.compression, workload::Compression::Lzo);
}

namespace
{

/**
 * One seeded mixed stream (single-node, analytics, services and
 * best-effort fillers) through a baseline manager on the local
 * cluster. The placement state is folded after every tick, and every
 * workload's completion time at the end, so any change to sizing,
 * assignment, queue retries, knobs or progress accounting moves the
 * hash. With `storm`, the crash/recover schedule of
 * Chaos.BaselineManagersSurviveTheSameStorm runs on top.
 */
uint64_t
pinnedRun(driver::ClusterManager &mgr, sim::Cluster &cluster,
          workload::WorkloadRegistry &registry, bool storm)
{
    driver::ScenarioDriver drv(cluster, registry, mgr,
                               driver::DriverConfig{.tick_s = 10.0});
    workload::WorkloadFactory f{stats::Rng(31)};
    std::vector<WorkloadId> ids;
    for (int i = 0; i < 60; ++i) {
        std::string name = "w" + std::to_string(i);
        ids.push_back(registry.add(i % 5 == 4 ? f.bestEffortJob(name)
                                              : f.randomWorkload(name)));
        drv.addArrival(ids.back(), 1.0 + 10.0 * double(i));
    }
    sim::FaultInjector faults(cluster);
    if (storm) {
        stats::Rng chaos(0xBEEF);
        for (int k = 0; k < 8; ++k) {
            double t = 300.0 + 300.0 * double(k);
            ServerId victim = ServerId(
                chaos.uniformInt(0, int64_t(cluster.size()) - 1));
            faults.crashServer(t, victim);
            faults.recoverServer(t + 150.0, victim);
        }
        drv.installFaults(faults);
    }
    uint64_t h = bench::kFnvBasis;
    drv.setTickHook([&](double) {
        bench::foldPlacements(cluster, bench::FoldWord::CoresAllocated,
                              h);
    });
    drv.run(5000.0);
    for (WorkloadId id : ids) {
        const Workload &w = registry.get(id);
        h ^= w.completed ? std::bit_cast<uint64_t>(w.completion_time)
                         : ~uint64_t(0);
        h *= 0x100000001B3ULL;
    }
    return h;
}

} // namespace

// The reservation baselines' placements, pinned bit for bit. The
// expected hashes were recorded before the baselines' shared
// reservation lifecycle was factored out (AutoScale's when it joined
// that lifecycle) and must never move without a deliberate,
// documented baseline refresh.
TEST(ReservationBaselines, ReservationLLIsPinned)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    ReservationLLManager mgr(cluster, registry);
    EXPECT_EQ(pinnedRun(mgr, cluster, registry, false),
              0xfba65ec228b77b77ULL);
}

TEST(ReservationBaselines, ReservationLLStormIsPinned)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    ReservationLLManager mgr(cluster, registry);
    EXPECT_EQ(pinnedRun(mgr, cluster, registry, true),
              0x067febcd9c5b10c7ULL);
}

TEST(ReservationBaselines, FrameworkSelfIsPinned)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    FrameworkSelfManager mgr(cluster, registry);
    EXPECT_EQ(pinnedRun(mgr, cluster, registry, false),
              0x011426aa89dd8e4cULL);
}

TEST(ReservationBaselines, FrameworkSelfStormIsPinned)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    FrameworkSelfManager mgr(cluster, registry);
    EXPECT_EQ(pinnedRun(mgr, cluster, registry, true),
              0x695f8708b13e4591ULL);
}

TEST(ReservationBaselines, ParagonIsPinned)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    ParagonManager mgr(cluster, registry);
    workload::WorkloadFactory seeder{stats::Rng(13)};
    mgr.seedOffline(bench::standardSeeds(seeder, 3), 0.0);
    EXPECT_EQ(pinnedRun(mgr, cluster, registry, false),
              0x2b8b4a6e089bc8d4ULL);
}

TEST(ReservationBaselines, AutoScaleIsPinned)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    AutoScaleManager mgr(cluster, registry);
    EXPECT_EQ(pinnedRun(mgr, cluster, registry, false),
              0x0ae3c11c767dbe3aULL);
}

TEST(ReservationBaselines, AutoScaleStormIsPinned)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    AutoScaleManager mgr(cluster, registry);
    EXPECT_EQ(pinnedRun(mgr, cluster, registry, true),
              0x56304752cd85eaadULL);
}

TEST(Comparative, QuasarBeatsLLOnSharedScenario)
{
    // Same six analytics jobs under both managers: Quasar's completion
    // times must be better in aggregate.
    auto run = [](bool quasar) {
        sim::Cluster cluster = sim::Cluster::localCluster();
        workload::WorkloadRegistry registry;
        std::unique_ptr<driver::ClusterManager> mgr;
        if (quasar) {
            core::QuasarConfig cfg;
            cfg.seed = 21;
            auto q = std::make_unique<core::QuasarManager>(cluster,
                                                           registry,
                                                           cfg);
            workload::WorkloadFactory seeder{stats::Rng(22)};
            q->seedOffline(seeder, 20);
            mgr = std::move(q);
        } else {
            mgr = std::make_unique<FrameworkSelfManager>(cluster,
                                                         registry, 23);
        }
        driver::ScenarioDriver drv(cluster, registry, *mgr,
                                   driver::DriverConfig{.tick_s = 10.0});
        workload::WorkloadFactory f{stats::Rng(24)};
        std::vector<WorkloadId> ids;
        for (int i = 0; i < 6; ++i) {
            Workload j = f.hadoopJob("j", 20.0 + 10.0 * i);
            j.total_work *= 3.0;
            j.target = workload::PerformanceTarget::completionTime(
                bench::sweepBestCompletion(j, cluster.catalog(), 4),
                j.total_work);
            WorkloadId id = registry.add(j);
            ids.push_back(id);
            drv.addArrival(id, 5.0 * (i + 1));
        }
        drv.run(60000.0);
        double total = 0.0;
        for (WorkloadId id : ids) {
            const Workload &w = registry.get(id);
            EXPECT_TRUE(w.completed);
            if (w.completed)
                total += w.completion_time - w.arrival_time;
        }
        return total;
    };
    double t_ll = run(false);
    double t_q = run(true);
    EXPECT_LT(t_q, t_ll);
}
