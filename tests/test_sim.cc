/**
 * @file
 * Tests for the discrete-event engine and the cluster model: event
 * ordering and cancellation, the Table 1 platform catalogs, server
 * placement/accounting/contention, and cluster aggregation.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "bench/report.hh"
#include "sim/cluster.hh"
#include "sim/event_queue.hh"

using namespace quasar;
using namespace quasar::sim;

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(3.0, [&] { order.push_back(3); });
    q.schedule(1.0, [&] { order.push_back(1); });
    q.schedule(2.0, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(q.now(), 3.0);
    EXPECT_EQ(q.eventsRun(), 3u);
}

TEST(EventQueue, FifoTieBreakAtSameTime)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(1.0, [&order, i] { order.push_back(i); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunUntilStopsClock)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1.0, [&] { ++fired; });
    q.schedule(5.0, [&] { ++fired; });
    q.run(2.0);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(q.empty());
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    int fired = 0;
    EventHandle h = q.schedule(1.0, [&] { ++fired; });
    EXPECT_TRUE(h.pending());
    h.cancel();
    EXPECT_FALSE(h.pending());
    q.run();
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EventsScheduleEvents)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            q.scheduleAfter(1.0, chain);
    };
    q.schedule(0.0, chain);
    q.run();
    EXPECT_EQ(depth, 5);
    EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueue, CancelledEventInsideWindowDoesNotBreachHorizon)
{
    // Regression: run(until) used to judge the horizon against the
    // raw heap top. With a cancelled event inside the window ahead of
    // a live event beyond it, step() would skip the cancelled entry
    // and fire the out-of-window event.
    EventQueue q;
    int fired = 0;
    EventHandle inside = q.schedule(1.0, [&] { ++fired; });
    q.schedule(5.0, [&] { ++fired; });
    inside.cancel();
    q.run(2.0);
    EXPECT_EQ(fired, 0);
    EXPECT_DOUBLE_EQ(q.now(), 0.0); // clock never moved
    q.run();
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(EventQueue, FifoSurvivesInterleavedCancellationAtSameTime)
{
    // Identical-timestamp events must keep firing in insertion order
    // even when some of the batch are cancelled between them.
    EventQueue q;
    std::vector<int> order;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 8; ++i)
        handles.push_back(
            q.schedule(1.0, [&order, i] { order.push_back(i); }));
    handles[0].cancel();
    handles[3].cancel();
    handles[7].cancel();
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5, 6}));
    EXPECT_EQ(q.eventsRun(), 5u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EmptyPrunesWithoutDroppingLiveEvents)
{
    EventQueue q;
    int fired = 0;
    EventHandle a = q.schedule(1.0, [&] { ++fired; });
    q.schedule(2.0, [&] { ++fired; });
    a.cancel();
    EXPECT_FALSE(q.empty()); // prunes the cancelled top only
    q.run();
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(q.empty());
}

TEST(Platform, LocalCatalogMatchesTable1)
{
    auto catalog = localPlatforms();
    ASSERT_EQ(catalog.size(), 10u);
    // Table 1: A(2c/4GB) ... J(24c/48GB).
    EXPECT_EQ(catalog[0].name, "A");
    EXPECT_EQ(catalog[0].cores, 2);
    EXPECT_DOUBLE_EQ(catalog[0].memory_gb, 4.0);
    EXPECT_EQ(catalog[9].name, "J");
    EXPECT_EQ(catalog[9].cores, 24);
    EXPECT_DOUBLE_EQ(catalog[9].memory_gb, 48.0);
    // Core speed is graded upward.
    EXPECT_LT(catalog[0].core_perf, catalog[9].core_perf);
}

TEST(Platform, Ec2CatalogHas14Types)
{
    auto catalog = ec2Platforms();
    EXPECT_EQ(catalog.size(), 14u);
    for (const Platform &p : catalog) {
        EXPECT_GT(p.cores, 0);
        EXPECT_GT(p.memory_gb, 0.0);
        for (double c : p.contention_capacity)
            EXPECT_GT(c, 0.0);
    }
}

TEST(Platform, HighestEndIsJ)
{
    auto catalog = localPlatforms();
    EXPECT_EQ(catalog[highestEndPlatform(catalog)].name, "J");
}

TEST(Platform, LookupByName)
{
    auto catalog = localPlatforms();
    EXPECT_EQ(platformByName(catalog, "D").cores, 8);
}

namespace
{

Server
makeServer(char name = 'J')
{
    auto catalog = localPlatforms();
    return Server(0, platformByName(catalog, std::string(1, name)));
}

sim::TaskShare
makeShare(WorkloadId id, int cores, double mem, bool be = false)
{
    sim::TaskShare s;
    s.workload = id;
    s.cores = cores;
    s.memory_gb = mem;
    s.storage_gb = 1.0;
    s.best_effort = be;
    s.caused = interference::zeroVector();
    return s;
}

} // namespace

TEST(Server, PlacementAccounting)
{
    Server srv = makeServer();
    EXPECT_TRUE(srv.canFit(24, 48.0, 100.0));
    srv.place(makeShare(1, 8, 16.0));
    EXPECT_TRUE(srv.hosts(1));
    EXPECT_EQ(srv.coresAllocated(), 8);
    EXPECT_EQ(srv.coresFree(), 16);
    EXPECT_DOUBLE_EQ(srv.memoryFree(), 32.0);
    EXPECT_FALSE(srv.canFit(17, 1.0, 0.0));
    EXPECT_TRUE(srv.remove(1));
    EXPECT_FALSE(srv.remove(1));
    EXPECT_EQ(srv.coresAllocated(), 0);
}

TEST(Server, ResizeAdjustsCapacityAndPressure)
{
    Server srv = makeServer();
    sim::TaskShare s = makeShare(1, 4, 8.0);
    s.caused[0] = 0.4;
    srv.place(s);
    EXPECT_TRUE(srv.resize(1, 8, 16.0));
    const sim::TaskShare *got = srv.share(1);
    EXPECT_EQ(got->cores, 8);
    // Pressure scales with the core share.
    EXPECT_DOUBLE_EQ(got->caused[0], 0.8);
    // Cannot grow past platform capacity.
    EXPECT_FALSE(srv.resize(1, 25, 16.0));
}

TEST(Server, ContentionExcludesSelfAndNormalizes)
{
    Server srv = makeServer();
    sim::TaskShare a = makeShare(1, 4, 8.0);
    a.caused[2] = 1.0;
    sim::TaskShare b = makeShare(2, 4, 8.0);
    b.caused[2] = 2.0;
    srv.place(a);
    srv.place(b);
    double cap = srv.platform().contention_capacity[2];
    EXPECT_NEAR(srv.contentionFor(1)[2], 2.0 / cap, 1e-12);
    EXPECT_NEAR(srv.contentionFor(2)[2], 1.0 / cap, 1e-12);
    EXPECT_NEAR(srv.contentionForNewcomer()[2], 3.0 / cap, 1e-12);
}

TEST(Server, InjectedPressureIsNormalizedInput)
{
    Server srv = makeServer();
    auto v = interference::zeroVector();
    v[1] = 0.5; // normalized intensity
    srv.injectPressureAt(0, v);
    EXPECT_NEAR(srv.contentionForNewcomer()[1], 0.5, 1e-12);
    srv.clearInjectedPressure();
    EXPECT_DOUBLE_EQ(srv.contentionForNewcomer()[1], 0.0);
}

TEST(Server, UsageAndUtilization)
{
    Server srv = makeServer();
    srv.place(makeShare(1, 12, 24.0));
    EXPECT_TRUE(srv.setUsage(1, 6.0));
    EXPECT_DOUBLE_EQ(srv.cpuUtilization(), 6.0 / 24.0);
    EXPECT_DOUBLE_EQ(srv.cpuReservedFraction(), 0.5);
    EXPECT_DOUBLE_EQ(srv.memoryFree(), 24.0);
    // Usage clamps to the allocation.
    srv.setUsage(1, 99.0);
    EXPECT_DOUBLE_EQ(srv.cpuUtilization(), 0.5);
    EXPECT_FALSE(srv.setUsage(42, 1.0));
}

TEST(Server, BestEffortListing)
{
    Server srv = makeServer();
    srv.place(makeShare(1, 2, 2.0, true));
    srv.place(makeShare(2, 2, 2.0, false));
    srv.place(makeShare(3, 2, 2.0, true));
    std::vector<WorkloadId> be;
    for (const sim::TaskShare &t : srv.tasks())
        if (t.best_effort)
            be.push_back(t.workload);
    EXPECT_EQ(be, (std::vector<WorkloadId>{1, 3}));
}

TEST(Cluster, LocalBuilder)
{
    Cluster c = Cluster::localCluster();
    EXPECT_EQ(c.size(), 40u);
    EXPECT_EQ(c.serversOfPlatform("A").size(), 4u);
    EXPECT_EQ(c.serversOfPlatform("J").size(), 4u);
    int expect_cores = 4 * (2 + 4 + 8 + 8 + 8 + 8 + 12 + 12 + 16 + 24);
    EXPECT_EQ(c.totalCores(), expect_cores);
}

TEST(Cluster, Ec2BuilderHas200Servers)
{
    Cluster c = Cluster::ec2Cluster();
    EXPECT_EQ(c.size(), 200u);
}

namespace
{

/** Every server's platform index is its platform's catalog position,
 *  and the catalog's names are unique (so the index is unambiguous). */
void
expectPlatformIndexMatchesCatalog(const Cluster &c)
{
    const auto &catalog = c.catalog();
    std::set<std::string> names;
    for (const Platform &p : catalog)
        names.insert(p.name);
    EXPECT_EQ(names.size(), catalog.size()) << "duplicate platform name";
    for (size_t i = 0; i < c.size(); ++i) {
        const Server &srv = c.server(ServerId(i));
        ASSERT_LT(srv.platformIndex(), catalog.size());
        EXPECT_EQ(catalog[srv.platformIndex()].name, srv.platform().name)
            << "server " << i;
    }
}

} // namespace

TEST(PlatformIndex, LocalClusterMatchesCatalog)
{
    expectPlatformIndexMatchesCatalog(Cluster::localCluster());
}

TEST(PlatformIndex, Ec2ClusterMatchesCatalog)
{
    expectPlatformIndexMatchesCatalog(Cluster::ec2Cluster());
}

TEST(PlatformIndex, ScaledBenchClusterMatchesCatalog)
{
    for (int servers : {40, 200, 1000})
        expectPlatformIndexMatchesCatalog(bench::clusterOfSize(servers));
}

TEST(Cluster, HostingAndRemoveEverywhere)
{
    Cluster c = Cluster::localCluster();
    c.server(0).place(makeShare(7, 1, 1.0));
    c.server(5).place(makeShare(7, 1, 1.0));
    EXPECT_EQ(c.serversHosting(7),
              (std::vector<ServerId>{0, 5}));
    EXPECT_EQ(c.removeEverywhere(7), 2u);
    EXPECT_TRUE(c.serversHosting(7).empty());
}

TEST(Cluster, SnapshotAggregates)
{
    Cluster c = Cluster::localCluster();
    c.server(39).place(makeShare(1, 24, 48.0)); // platform J full
    c.server(39).setUsage(1, 12.0);
    ClusterSnapshot snap = c.snapshot();
    EXPECT_NEAR(snap.cpu_reserved, 24.0 / c.totalCores(), 1e-12);
    EXPECT_NEAR(snap.cpu_used, 12.0 / c.totalCores(), 1e-12);
    EXPECT_NEAR(snap.mem_used, 48.0 / c.totalMemoryGb(), 1e-12);
}
