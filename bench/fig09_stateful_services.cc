/**
 * @file
 * Reproduces paper Figs. 9 and 10: two stateful latency-critical
 * services — a memcached deployment (1 TB of state, diurnal load up to
 * 2.4M QPS, 200 us p99 QoS) and a Cassandra deployment (4 TB, up to
 * 60K QPS, 30 ms QoS) — run for 24 hours on the 40-server cluster,
 * with spare capacity running best-effort tasks. Quasar is compared
 * against the auto-scaling manager. Fig. 9 reports throughput tracking
 * and latency QoS; Fig. 10 the CPU/memory/storage usage split across
 * the day.
 */

#include <cmath>

#include "baselines/autoscale.hh"
#include "bench/common.hh"
#include "core/manager.hh"
#include "driver/scenario.hh"
#include "stats/summary.hh"

using namespace quasar;
using workload::Workload;

namespace
{

constexpr double kDay = 86400.0;

struct Result
{
    stats::TimeSeries mc_offered, mc_served;
    stats::TimeSeries cas_offered, cas_served;
    double mc_qos = 0.0, cas_qos = 0.0;
    double mc_track = 0.0, cas_track = 0.0;
    std::vector<double> mc_latency_ms, cas_latency_ms;
    /** Fig. 10: per-6h-window resource fractions by category:
     *  [window][0=memcached,1=cassandra,2=best-effort] */
    double cpu_share[4][3] = {};
    double mem_share[4][3] = {};
    double storage_share[4][3] = {};
    size_t be_finished = 0;
};

template <typename MakeManager>
Result
runDay(uint64_t seed, MakeManager make)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    auto manager = make(cluster, registry);
    driver::ScenarioDriver drv(cluster, registry, *manager,
                               driver::DriverConfig{.tick_s = 20.0,
                                                    .record_every = 6});

    workload::WorkloadFactory factory{stats::Rng(seed)};
    Workload mc = factory.memcachedService(
        "memcached", 2.4e6, 200e-6, 1024.0,
        std::make_shared<tracegen::DiurnalLoad>(0.6e6, 2.4e6, kDay,
                                                14.0 * 3600.0));
    Workload cas = factory.cassandraService(
        "cassandra", 60e3, 30e-3, 4096.0,
        std::make_shared<tracegen::DiurnalLoad>(18e3, 60e3, kDay,
                                                15.0 * 3600.0));
    WorkloadId mc_id = registry.add(mc);
    WorkloadId cas_id = registry.add(cas);
    drv.addArrival(mc_id, 1.0);
    drv.addArrival(cas_id, 30.0);

    std::vector<WorkloadId> be_ids;
    for (double t = 60.0; t < kDay * 0.9; t += 10.0) {
        Workload be =
            factory.bestEffortJob("be-" + std::to_string(int(t)));
        be.total_work *= 4.0;
        WorkloadId id = registry.add(be);
        be_ids.push_back(id);
        drv.addArrival(id, t);
    }

    Result res;
    double counts[4] = {};
    drv.setTickHook([&](double t) {
        if (std::fmod(t, 120.0) > 20.5)
            return;
        int window = std::min(3, int(t / (kDay / 4.0)));
        counts[window] += 1.0;
        double total_cores = cluster.totalCores();
        double total_mem = cluster.totalMemoryGb();
        double total_storage = cluster.totalStorageGb();
        for (size_t s = 0; s < cluster.size(); ++s) {
            for (const sim::TaskShare &task :
                 cluster.server(ServerId(s)).tasks()) {
                int cat = task.workload == mc_id    ? 0
                          : task.workload == cas_id ? 1
                                                    : 2;
                res.cpu_share[window][cat] +=
                    task.cores_used / total_cores;
                res.mem_share[window][cat] +=
                    task.memory_gb / total_mem;
                res.storage_share[window][cat] +=
                    task.storage_gb / total_storage;
            }
        }
    });

    drv.run(kDay);

    for (int wdw = 0; wdw < 4; ++wdw) {
        for (int c = 0; c < 3; ++c) {
            if (counts[wdw] > 0) {
                res.cpu_share[wdw][c] /= counts[wdw];
                res.mem_share[wdw][c] /= counts[wdw];
                res.storage_share[wdw][c] /= counts[wdw];
            }
        }
    }

    auto digest = [&](WorkloadId id, stats::TimeSeries &offered,
                      stats::TimeSeries &served, double &qos,
                      double &track, std::vector<double> &lat_ms) {
        const driver::ServiceTrace *tr = drv.serviceTrace(id);
        double qos_w = 0.0, track_w = 0.0, off_sum = 0.0;
        for (size_t i = 0; i < tr->offered_qps.size(); ++i) {
            double off = tr->offered_qps.valueAt(i);
            offered.record(tr->offered_qps.timeAt(i), off);
            served.record(tr->served_ok_qps.timeAt(i),
                          tr->served_ok_qps.valueAt(i));
            lat_ms.push_back(1e3 * tr->p99_latency.valueAt(i));
            if (off > 0.0) {
                qos_w += tr->qos_fraction.valueAt(i) * off;
                track_w += std::min(
                    tr->served_ok_qps.valueAt(i) / off, 1.0) * off;
                off_sum += off;
            }
        }
        qos = off_sum > 0 ? qos_w / off_sum : 0.0;
        track = off_sum > 0 ? track_w / off_sum : 0.0;
    };
    digest(mc_id, res.mc_offered, res.mc_served, res.mc_qos,
           res.mc_track, res.mc_latency_ms);
    digest(cas_id, res.cas_offered, res.cas_served, res.cas_qos,
           res.cas_track, res.cas_latency_ms);

    for (WorkloadId id : be_ids)
        if (registry.get(id).completed)
            ++res.be_finished;
    return res;
}

void
printSeries(const char *label, const stats::TimeSeries &ts,
            double scale)
{
    std::printf("%-9s", label);
    for (int h = 2; h <= 24; h += 2)
        std::printf(" %6.0f",
                    scale * ts.meanOver((h - 2) * 3600.0, h * 3600.0));
    std::printf("\n");
}

const char *kCat[3] = {"memcached", "cassandra", "best-effort"};

void
printShares(const char *resource, const double share[4][3])
{
    std::printf("%s (%% of cluster, per 6h window):\n", resource);
    std::printf("  %-12s %8s %8s %8s %8s\n", "category", "0-6h",
                "6-12h", "12-18h", "18-24h");
    for (int c = 0; c < 3; ++c) {
        std::printf("  %-12s", kCat[c]);
        for (int wdw = 0; wdw < 4; ++wdw)
            std::printf(" %7.1f%%", 100.0 * share[wdw][c]);
        std::printf("\n");
    }
}

} // namespace

int
main()
{
    bench::banner("Fig. 9: stateful latency-critical services over "
                  "24h, Quasar vs auto-scaling");

    workload::WorkloadFactory seed_factory{stats::Rng(909)};
    auto offline = bench::standardSeeds(seed_factory, 4);

    Result as = runDay(1909, [&](auto &c, auto &r) {
        baselines::AutoScaleConfig cfg;
        cfg.max_instances = 24;
        cfg.instance_memory_gb = 24.0;
        return std::make_unique<baselines::AutoScaleManager>(c, r, cfg,
                                                             444);
    });
    Result qs = runDay(1909, [&](auto &c, auto &r) {
        core::QuasarConfig cfg;
        cfg.seed = 990;
        auto m = std::make_unique<core::QuasarManager>(c, r, cfg);
        m->seedOffline(offline, 0.0);
        return m;
    });

    bench::section("memcached throughput (kQPS, 2h windows)");
    printSeries("target", qs.mc_offered, 1e-3);
    printSeries("autoscl", as.mc_served, 1e-3);
    printSeries("quasar", qs.mc_served, 1e-3);
    std::printf("queries meeting 200us QoS: autoscale %.1f%%, quasar "
                "%.1f%% (paper: 80%% vs 98.8%%)\n",
                100.0 * as.mc_qos, 100.0 * qs.mc_qos);

    bench::section("cassandra throughput (kQPS, 2h windows)");
    printSeries("target", qs.cas_offered, 1e-3);
    printSeries("autoscl", as.cas_served, 1e-3);
    printSeries("quasar", qs.cas_served, 1e-3);
    std::printf("queries meeting 30ms QoS: autoscale %.1f%%, quasar "
                "%.1f%% (paper: 93%% vs 98.6%%)\n",
                100.0 * as.cas_qos, 100.0 * qs.cas_qos);

    bench::section("latency distribution across the day (p99 per "
                   "sample)");
    {
        stats::Samples s;
        s.addAll(qs.mc_latency_ms);
        stats::Samples a;
        a.addAll(as.mc_latency_ms);
        std::printf("memcached p99 (ms): quasar p50/p90/max = "
                    "%.2f/%.2f/%.2f, autoscale = %.2f/%.2f/%.2f\n",
                    s.percentile(50), s.percentile(90), s.max(),
                    a.percentile(50), a.percentile(90), a.max());
        stats::Samples sc, ac;
        sc.addAll(qs.cas_latency_ms);
        ac.addAll(as.cas_latency_ms);
        std::printf("cassandra p99 (ms): quasar p50/p90/max = "
                    "%.1f/%.1f/%.1f, autoscale = %.1f/%.1f/%.1f\n",
                    sc.percentile(50), sc.percentile(90), sc.max(),
                    ac.percentile(50), ac.percentile(90), ac.max());
    }

    std::printf("\nthroughput tracking (served-in-QoS / offered): "
                "memcached autoscale %.1f%% vs quasar %.1f%% "
                "(paper: -24%% vs target for autoscale); cassandra "
                "%.1f%% vs %.1f%% (paper: -12%%)\n",
                100.0 * as.mc_track, 100.0 * qs.mc_track,
                100.0 * as.cas_track, 100.0 * qs.cas_track);
    std::printf("best-effort finished: autoscale %zu, quasar %zu\n",
                as.be_finished, qs.be_finished);

    bench::banner("Fig. 10: resource-usage split under Quasar "
                  "(four 6h windows)");
    printShares("CPU", qs.cpu_share);
    printShares("memory", qs.mem_share);
    printShares("storage", qs.storage_share);
    std::printf("\npaper reference: CPU mostly goes to best-effort "
                "tasks, memory to memcached, and disk I/O to "
                "Cassandra; the best-effort share follows the diurnal "
                "trough of the services.\n");
    return 0;
}
