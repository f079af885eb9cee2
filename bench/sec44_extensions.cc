/**
 * @file
 * Demonstrates the Sec. 4.4 extensions the paper lists as future work
 * and this implementation provides: per-workload cost targets,
 * priority-based preemption, and fault-zone-aware assignment.
 */

#include <cmath>
#include <set>

#include "bench/common.hh"
#include "core/classifier.hh"
#include "core/predictor.hh"
#include "core/scheduler.hh"
#include "workload/queueing.hh"

using namespace quasar;
using workload::Workload;

int
main()
{
    bench::banner("Sec. 4.4 extensions: cost targets, priorities, "
                  "fault zones");

    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    profiling::Profiler profiler(cluster.catalog(), {});
    core::Classifier clf(profiler, {}, 44);
    workload::WorkloadFactory factory{stats::Rng(444)};
    clf.seedOffline(bench::standardSeeds(factory, 4), 0.0);
    stats::Rng rng(445);

    auto classify = [&](Workload w) {
        WorkloadId id = registry.add(std::move(w));
        auto data = profiler.profile(registry.get(id), 0.0, rng);
        return std::make_pair(id, clf.classify(registry.get(id), data));
    };

    bench::section("cost targets: performance vs spending cap for one "
                   "Hadoop job");
    std::printf("%12s %10s %10s %8s\n", "cap ($/h)", "perf", "cores",
                "nodes");
    auto [cost_id, cost_est] =
        classify(factory.hadoopJob("job", 60.0));
    for (double cap : {0.5, 1.0, 2.0, 4.0, 8.0, 0.0}) {
        registry.get(cost_id).cost_cap_per_hour = cap;
        const auto &est = cost_est;
        core::GreedyScheduler sched(cluster, {}, &registry);
        auto alloc = sched.allocate(registry.get(cost_id), est, 1e12, false);
        if (cap > 0.0)
            std::printf("%12.1f %10.1f %10d %8zu\n", cap,
                        alloc->predicted_perf, alloc->totalCores(),
                        alloc->nodes.size());
        else
            std::printf("%12s %10.1f %10d %8zu\n", "unlimited",
                        alloc->predicted_perf, alloc->totalCores(),
                        alloc->nodes.size());
    }
    std::printf("=> more budget buys more performance, monotonically; "
                "the scheduler never exceeds the cap.\n");

    bench::section("priorities: preemption order under pressure");
    {
        // Fill the best servers with priority-1 residents.
        for (ServerId sid : cluster.serversOfPlatform("J")) {
            Workload filler = factory.singleNodeJob("low", "specjbb");
            filler.priority = 1;
            filler.total_work = 1e18;
            WorkloadId fid = registry.add(filler);
            sim::Server &srv = cluster.server(sid);
            sim::TaskShare share;
            share.workload = fid;
            share.cores = srv.platform().cores;
            share.memory_gb = srv.platform().memory_gb;
            srv.place(share);
        }
        Workload vip = factory.hadoopJob("vip", 40.0);
        vip.priority = 3;
        auto [id, est] = classify(std::move(vip));
        core::GreedyScheduler sched(cluster, {}, &registry);
        auto alloc = sched.allocate(registry.get(id), est,
                                    0.5 * est.scale_up_perf[0], true);
        std::printf("priority-3 job displaced %zu priority-1 tasks to "
                    "claim %zu high-end nodes\n",
                    alloc->evictions.size(), alloc->nodes.size());
        for (const auto &[sid, victim] : alloc->evictions)
            cluster.server(sid).remove(victim);
        for (const auto &n : alloc->nodes) {
            sim::TaskShare share;
            share.workload = id;
            share.cores = n.cores;
            share.memory_gb = n.memory_gb;
            cluster.server(n.server).place(share);
        }

        Workload peer = factory.hadoopJob("peer", 40.0);
        peer.priority = 3; // equal: must NOT displace the vip job
        auto [id2, est2] = classify(std::move(peer));
        auto alloc2 = sched.allocate(registry.get(id2), est2,
                                     0.5 * est2.scale_up_perf[0], true);
        bool touched_vip = false;
        if (alloc2)
            for (const auto &[sid, victim] : alloc2->evictions)
                touched_vip = touched_vip || victim == id;
        std::printf("equal-priority follow-up evicted the running job: "
                    "%s (expected: no)\n", touched_vip ? "yes" : "no");
        cluster.removeEverywhere(id);
    }

    bench::section("fault zones: node spread of an 8-node allocation");
    {
        Workload j = factory.hadoopJob("spread", 80.0);
        auto [id, est] = classify(std::move(j));
        double best = 0.0;
        for (double v : est.scale_up_perf)
            best = std::max(best, v);
        for (bool spread : {false, true}) {
            core::GreedyScheduler sched(cluster, {}, &registry);
            auto alloc = sched.allocate(registry.get(id), est,
                                        5.0 * best, false,
                                        spread);
            std::set<int> zones;
            for (const auto &n : alloc->nodes)
                zones.insert(cluster.server(n.server).faultZone());
            std::printf("spread=%-5s -> %zu nodes across "
                        "%zu of %d zones (perf %.1f)\n",
                        spread ? "true" : "false", alloc->nodes.size(),
                        zones.size(), cluster.numFaultZones(),
                        alloc->predicted_perf);
        }
        std::printf("=> spreading survives a zone failure at a small "
                    "(or zero) performance cost.\n");
    }

    bench::section("resource partitioning: shielding a sensitive job "
                   "from a noisy neighbour");
    {
        // A sensitive resident and a noisy co-runner on one server.
        Workload sensitive = factory.singleNodeJob("victim", "specjbb");
        sensitive.truth.sensitivity.threshold.fill(0.05);
        sensitive.truth.sensitivity.slope.fill(2.0);
        WorkloadId vid = registry.add(sensitive);
        Workload noisy = factory.singleNodeJob("noisy", "parsec");
        noisy.truth.sensitivity.caused_per_core.fill(0.2);
        WorkloadId nid = registry.add(noisy);

        sim::Server &srv =
            cluster.server(cluster.serversOfPlatform("I")[3]);
        sim::TaskShare a;
        a.workload = vid;
        a.cores = 8;
        a.memory_gb = 8.0;
        a.caused = registry.get(vid).causedPressure(0.0, 8);
        srv.place(a);
        sim::TaskShare b;
        b.workload = nid;
        b.cores = 8;
        b.memory_gb = 8.0;
        b.caused = registry.get(nid).causedPressure(0.0, 8);
        srv.place(b);

        workload::PerfOracle oracle(cluster, registry);
        double contended =
            oracle.currentRate(registry.get(vid), 0.0);
        for (size_t i = 0; i < interference::kNumSources; ++i)
            srv.setIsolation(vid, interference::sourceAt(i), true);
        double partitioned =
            oracle.currentRate(registry.get(vid), 0.0);
        srv.remove(nid);
        for (size_t i = 0; i < interference::kNumSources; ++i)
            srv.setIsolation(vid, interference::sourceAt(i), false);
        double alone = oracle.currentRate(registry.get(vid), 0.0);
        std::printf("victim rate: alone %.2f | contended %.2f "
                    "(-%.0f%%) | partitioned %.2f (-%.0f%%)\n",
                    alone, contended,
                    100.0 * (1.0 - contended / alone), partitioned,
                    100.0 * (1.0 - partitioned / alone));
        std::printf("=> partitioning recovers most of the interference "
                    "loss for a fixed ~5%%-per-resource capacity "
                    "tax.\n");
        srv.remove(vid);
    }

    bench::section("load prediction: capacity ahead of a ramp");
    {
        core::LoadPredictor pred;
        auto ramp = tracegen::PiecewiseLoad(
            {{0.0, 100.0}, {600.0, 100.0}, {1200.0, 700.0},
             {2400.0, 700.0}});
        std::printf("%8s %10s %13s %13s\n", "t (s)", "actual",
                    "actual+120s", "forecast+120s");
        for (double t = 0.0; t <= 1500.0; t += 30.0) {
            pred.observe(t, ramp.qpsAt(t));
            if (std::fmod(t, 150.0) < 1.0)
                std::printf("%8.0f %10.0f %13.0f %13.0f\n", t,
                            ramp.qpsAt(t), ramp.qpsAt(t + 120.0),
                            pred.predict(t + 120.0));
        }
        std::printf("=> during the ramp the forecast leads the actual "
                    "load, so Quasar provisions before the monitor "
                    "would have noticed a miss.\n");
    }
    return 0;
}
