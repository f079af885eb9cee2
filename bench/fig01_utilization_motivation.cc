/**
 * @file
 * Reproduces paper Fig. 1 (motivation): a production-style cluster
 * managed with reservations + least-loaded placement. We replay a
 * service-heavy workload population (the Twitter cluster "mostly hosts
 * user-facing services") whose reservations follow the paper's
 * Fig. 1d error distribution, over four simulated days, and report:
 *  (a) aggregate CPU used vs reserved,
 *  (b) aggregate memory used vs reserved,
 *  (c) the per-server CPU-utilization CDF per day,
 *  (d) the reserved/used ratio distribution across workloads.
 */

#include <cmath>
#include <map>

#include "baselines/reservation_ll.hh"
#include "bench/common.hh"
#include "driver/scenario.hh"
#include "stats/summary.hh"

using namespace quasar;
using workload::Workload;

namespace
{

constexpr double kDay = 86400.0;
constexpr double kDays = 4.0;

} // namespace

int
main()
{
    bench::banner("Fig. 1: utilization of a reservation-managed "
                  "production cluster (motivation)");

    sim::Cluster cluster = sim::Cluster::ec2Cluster();
    workload::WorkloadRegistry registry;
    baselines::ReservationLLManager manager(cluster, registry, 101);
    driver::ScenarioDriver drv(cluster, registry, manager,
                               driver::DriverConfig{.tick_s = 60.0,
                                                    .record_every = 5});

    workload::WorkloadFactory factory{stats::Rng(1)};
    auto &rng = factory.rng();

    // Service-heavy population: long-running user-facing services with
    // diurnal load, plus a long tail of batch work resubmitted daily.
    std::vector<WorkloadId> ids;
    for (int i = 0; i < 320; ++i) {
        std::string name = "svc-" + std::to_string(i);
        double x = rng.uniform();
        Workload w;
        if (x < 0.7) {
            double qps = rng.uniform(60.0, 250.0);
            w = factory.webService(
                name, qps, 0.1,
                std::make_shared<tracegen::DiurnalLoad>(
                    0.2 * qps, qps, kDay,
                    rng.uniform(10.0, 20.0) * 3600.0));
        } else if (x < 0.9) {
            double qps = rng.uniform(1e4, 3e4);
            w = factory.memcachedService(
                name, qps, 200e-6, rng.uniform(10.0, 30.0),
                std::make_shared<tracegen::DiurnalLoad>(
                    0.25 * qps, qps, kDay,
                    rng.uniform(10.0, 20.0) * 3600.0));
            // Small caches sized for the small-instance fleet.
            w.truth.mem_demand_gb = rng.uniform(3.0, 8.0);
        } else {
            double qps = rng.uniform(1e3, 4e3);
            w = factory.cassandraService(
                name, qps, 30e-3, rng.uniform(80.0, 200.0),
                std::make_shared<tracegen::DiurnalLoad>(
                    0.3 * qps, qps, kDay,
                    rng.uniform(10.0, 20.0) * 3600.0));
            w.truth.mem_demand_gb = rng.uniform(3.0, 8.0);
        }
        WorkloadId id = registry.add(w);
        ids.push_back(id);
        drv.addArrival(id, rng.uniform(1.0, 1800.0));
    }
    // Batch tail: submitted throughout each day.
    // The batch tail is single-app tasks with fixed (single) thread
    // counts: they cannot exploit an over-sized reservation, which is
    // exactly where the paper's reserved-vs-used gap comes from.
    static const char *families[] = {"spec-int", "spec-fp", "spec-int",
                                     "spec-fp", "spec-int", "spec-fp"};
    for (int d = 0; d < int(kDays); ++d) {
        for (int i = 0; i < 220; ++i) {
            Workload w = factory.singleNodeJob(
                "batch-" + std::to_string(d) + "-" + std::to_string(i),
                families[rng.uniformInt(0, 5)]);
            w.total_work *= 8.0; // hour-scale batch tasks
            WorkloadId id = registry.add(w);
            ids.push_back(id);
            drv.addArrival(id, d * kDay + rng.uniform(0.0, kDay * 0.9));
        }
    }

    // Track each workload's total used cores (across all its placed
    // nodes) for panel (d); unplaced reservation nodes count as zero
    // usage, exactly like reserved-but-idle capacity in production.
    std::map<WorkloadId, stats::Accumulator> used_cores;
    drv.setTickHook([&](double t) {
        if (std::fmod(t, 600.0) > 60.5)
            return;
        std::map<WorkloadId, double> total;
        for (size_t s = 0; s < cluster.size(); ++s)
            for (const sim::TaskShare &task :
                 cluster.server(ServerId(s)).tasks())
                total[task.workload] += task.cores_used;
        for (const auto &[id, cores] : total)
            used_cores[id].add(cores);
    });

    drv.run(kDays * kDay);

    bench::section("Fig. 1a: aggregate CPU, used vs reserved (% of "
                   "capacity, 12 windows over 4 days)");
    std::printf("%-10s", "used");
    for (int i = 1; i <= 12; ++i)
        std::printf(" %4.0f%%",
                    100.0 * drv.aggCpuUsed().meanOver(
                                (i - 1) * kDays * kDay / 12.0,
                                i * kDays * kDay / 12.0));
    std::printf("\n%-10s", "reserved");
    for (int i = 1; i <= 12; ++i)
        std::printf(" %4.0f%%",
                    100.0 * drv.aggCpuReserved().meanOver(
                                (i - 1) * kDays * kDay / 12.0,
                                i * kDays * kDay / 12.0));
    std::printf("\n");

    bench::section("Fig. 1b: aggregate memory, used(=allocated) vs "
                   "capacity");
    std::printf("%-10s", "reserved");
    for (int i = 1; i <= 12; ++i)
        std::printf(" %4.0f%%",
                    100.0 * drv.aggMemUsed().meanOver(
                                (i - 1) * kDays * kDay / 12.0,
                                i * kDays * kDay / 12.0));
    std::printf("\n");

    bench::section("Fig. 1c: CDF of per-server mean CPU utilization, "
                   "per day");
    std::printf("%-8s %6s %6s %6s %6s %6s\n", "day", "p10", "p30",
                "p50", "p70", "p90");
    for (int d = 0; d < int(kDays); ++d) {
        auto means = drv.cpuUsedGrid().windowMeans(d * kDay,
                                                   (d + 1) * kDay);
        stats::Samples s;
        s.addAll(means);
        std::printf("day %-4d %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%%\n",
                    d + 1, 100 * s.percentile(10), 100 * s.percentile(30),
                    100 * s.percentile(50), 100 * s.percentile(70),
                    100 * s.percentile(90));
    }

    bench::section("Fig. 1d: reserved/used ratio across workloads");
    stats::Samples ratios;
    size_t under = 0, right = 0, over = 0;
    for (WorkloadId id : ids) {
        auto it = used_cores.find(id);
        const baselines::Reservation *res = manager.reservationFor(id);
        if (it == used_cores.end() || !res || it->second.mean() <= 0.0)
            continue;
        // Total reserved (all nodes) vs mean total used cores.
        double reserved = double(res->cores_per_node) *
                          double(res->nodes);
        double ratio = reserved / it->second.mean();
        ratios.add(ratio);
        if (ratio < 0.9)
            ++under;
        else if (ratio <= 1.5)
            ++right;
        else
            ++over;
    }
    double total = double(under + right + over);
    std::printf("under-sized (<0.9x): %5.1f%%   right-sized: %5.1f%%   "
                "over-sized (>1.5x): %5.1f%%\n",
                100.0 * double(under) / total,
                100.0 * double(right) / total,
                100.0 * double(over) / total);
    std::printf("%s", stats::formatCdfTable(ratios.values(),
                                            "reserved/used ratio")
                          .c_str());
    std::printf("(note: our cgroup model hard-caps usage at the "
                "reservation, so the paper's under-sized tail — tasks "
                "bursting past their reservation on idle cores — "
                "cannot appear; under-reserved workloads here show up "
                "as ratio ~1 plus missed targets instead)\n");

    std::printf("\npaper reference (Twitter/Mesos production cluster): "
                "aggregate CPU use <20%% with reservations up to 80%%; "
                "most servers below 50%% utilization; ~70%% of "
                "workloads over-reserve (up to 10x), ~20%% "
                "under-reserve.\n");
    return 0;
}
