#include "churn/churn.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "tracegen/arrivals.hh"
#include "tracegen/load_pattern.hh"

namespace quasar::churn
{

using workload::Workload;

namespace
{

/** Fraction of stochastic server faults that degrade, not crash. */
constexpr double kDegradeFraction = 0.25;

/** The catalog's fastest platform, for analytics targets. */
const sim::Platform &
bestPlatform(const sim::Cluster &cluster)
{
    const auto &catalog = cluster.catalog();
    assert(!catalog.empty());
    size_t best = 0;
    for (size_t i = 1; i < catalog.size(); ++i) {
        double a = catalog[i].core_perf * double(catalog[i].cores);
        double b =
            catalog[best].core_perf * double(catalog[best].cores);
        if (a > b)
            best = i;
    }
    return catalog[best];
}

ChurnClass
drawClass(const ChurnMix &mix, stats::Rng &rng)
{
    std::vector<double> weights = {
        std::max(mix.single_node, 0.0), std::max(mix.analytics, 0.0),
        std::max(mix.service, 0.0), std::max(mix.best_effort, 0.0)};
    double total = weights[0] + weights[1] + weights[2] + weights[3];
    if (total <= 0.0)
        return ChurnClass::SingleNode; // degenerate mix: batch only
    switch (rng.weightedIndex(weights)) {
    case 0:
        return ChurnClass::SingleNode;
    case 1:
        return ChurnClass::Analytics;
    case 2:
        return ChurnClass::Service;
    default:
        return ChurnClass::BestEffort;
    }
}

const tracegen::DurationSpec &
lifetimeSpec(const ChurnConfig &cfg, ChurnClass cls)
{
    switch (cls) {
    case ChurnClass::Service:
        return cfg.service_lifetime;
    case ChurnClass::Analytics:
        return cfg.analytics_lifetime;
    case ChurnClass::BestEffort:
        return cfg.best_effort_lifetime;
    case ChurnClass::SingleNode:
        break;
    }
    return cfg.batch_lifetime;
}

/**
 * Next inter-arrival gap as seen from time t: the process's raw gap,
 * divided by the rate profile's multiplier at t (infinite when the
 * process rate is zero).
 */
double
pacedGap(const ChurnConfig &cfg, tracegen::ArrivalProcess &process,
         stats::Rng &pacing, double t)
{
    double gap = process.nextGap(pacing);
    if (!std::isfinite(gap) || !cfg.rate_pattern)
        return gap;
    // The profile is a unit-less multiplier on the configured rate:
    // 2x the rate halves the gap. A (near-)zero profile value means
    // "no arrivals right now" — step a fixed beat forward instead of
    // dividing toward infinity, so the stream resumes when the
    // profile does.
    double mult = cfg.rate_pattern->qpsAt(t);
    if (mult <= 1e-9)
        return gap + 1.0 / std::max(cfg.arrival_rate_per_s, 1e-9);
    return gap / mult;
}

} // namespace

Workload
makeChurnWorkload(ChurnClass cls, size_t idx,
                  workload::WorkloadFactory &factory,
                  const sim::Cluster &cluster, const char *name_prefix)
{
    auto &rng = factory.rng();
    std::string name = name_prefix + std::to_string(idx);
    switch (cls) {
    case ChurnClass::SingleNode: {
        static const char *families[] = {
            "spec-int", "spec-fp",  "parsec",  "splash2",
            "minebench", "bioparallel", "specjbb", "mix"};
        return factory.singleNodeJob(name,
                                     families[rng.uniformInt(0, 7)]);
    }
    case ChurnClass::Analytics: {
        // Log-uniform dataset 1-40 GB: small enough that a healthy
        // manager retires jobs at churn timescales.
        double gb = std::exp(rng.uniform(0.0, std::log(40.0)));
        double y = rng.uniform();
        Workload w;
        if (y < 0.6)
            w = factory.hadoopJob(name, gb);
        else if (y < 0.8)
            w = factory.stormJob(name, gb);
        else
            w = factory.sparkJob(name, gb);
        w.target = workload::WorkloadFactory::defaultAnalyticsTarget(
            w, bestPlatform(cluster), 3);
        return w;
    }
    case ChurnClass::Service: {
        double y = rng.uniform();
        if (y < 0.5) {
            double qps = rng.uniform(100.0, 400.0);
            auto load = std::make_shared<tracegen::FluctuatingLoad>(
                0.75 * qps, 0.25 * qps, rng.uniform(1800.0, 7200.0));
            return factory.webService(name, qps, 0.1, load);
        }
        if (y < 0.8) {
            double qps = rng.uniform(5e4, 2e5);
            auto load = std::make_shared<tracegen::FluctuatingLoad>(
                0.7 * qps, 0.3 * qps, rng.uniform(3600.0, 14400.0));
            return factory.memcachedService(name, qps, 200e-6,
                                            rng.uniform(10.0, 60.0),
                                            load);
        }
        double qps = rng.uniform(3e3, 12e3);
        auto load = std::make_shared<tracegen::FluctuatingLoad>(
            0.7 * qps, 0.3 * qps, rng.uniform(3600.0, 14400.0));
        return factory.cassandraService(name, qps, 30e-3,
                                        rng.uniform(80.0, 250.0),
                                        load);
    }
    case ChurnClass::BestEffort:
        break;
    }
    return factory.bestEffortJob(name);
}

void
installPlanned(ChurnItem item, Workload w, double horizon_s,
               workload::WorkloadFactory &factory,
               workload::WorkloadRegistry &registry,
               driver::ScenarioDriver &driver,
               std::vector<ChurnItem> &plan, ChurnCounts &counts)
{
    if (item.depart_s > 0.0)
        ++counts.departures_planned;
    if (item.phase_change) {
        double end = item.depart_s > 0.0 ? item.depart_s : horizon_s;
        factory.addPhaseChange(
            w, item.arrival_s + 0.5 * (end - item.arrival_s));
        ++counts.phase_changes;
    }

    item.id = registry.add(std::move(w));
    driver.addArrival(item.id, item.arrival_s);
    if (item.depart_s > 0.0) {
        WorkloadId id = item.id;
        double at = item.depart_s;
        driver.events().schedule(at, [&driver, id, at]() {
            driver.killWorkload(id, at);
        });
    }

    plan.push_back(item);
    ++counts.arrivals;
}

void
ChurnEngine::install(sim::Cluster &cluster,
                     workload::WorkloadRegistry &registry,
                     driver::ScenarioDriver &driver)
{
    assert(plan_.empty() && "install() must be called once");

    // Independent streams so a different mix draw never perturbs the
    // arrival clock (and vice versa): pacing, population, and
    // lifetimes each consume their own fork of the master seed.
    stats::Rng master(cfg_.seed);
    stats::Rng pacing = master.fork();
    workload::WorkloadFactory factory{master.fork()};
    stats::Rng lifetimes = master.fork();
    stats::Rng phases = master.fork();

    std::unique_ptr<tracegen::ArrivalProcess> process;
    if (cfg_.arrivals == ArrivalKind::Pareto)
        process = std::make_unique<tracegen::ParetoArrivals>(
            cfg_.arrival_rate_per_s > 0.0
                ? 1.0 / cfg_.arrival_rate_per_s
                : 0.0,
            cfg_.pareto_alpha);
    else
        process = std::make_unique<tracegen::PoissonArrivals>(
            cfg_.arrival_rate_per_s);

    // The whole plan is generated here, before the run, and never
    // consults simulation state.
    size_t idx = 0;
    double t = cfg_.start_s;
    while (t < cfg_.horizon_s) {
        ChurnItem item;
        item.cls = drawClass(cfg_.mix, factory.rng());
        item.arrival_s = t;
        Workload w = makeChurnWorkload(item.cls, idx, factory, cluster);

        double life = tracegen::sampleDuration(
            lifetimeSpec(cfg_, item.cls), lifetimes);
        if (life > 0.0 && t + life < cfg_.horizon_s)
            item.depart_s = t + life;
        item.phase_change = phases.chance(cfg_.phase_change_fraction);

        installPlanned(item, std::move(w), cfg_.horizon_s, factory,
                       registry, driver, plan_, counts_);
        ++idx;

        double gap = pacedGap(cfg_, *process, pacing, t);
        if (!std::isfinite(gap))
            break; // zero-rate process: the stream is over
        t += gap;
    }

    if (cfg_.server_mttf_s > 0.0) {
        sim::FaultInjectorConfig fcfg;
        fcfg.mttf_s = cfg_.server_mttf_s;
        fcfg.mttr_s = cfg_.server_mttr_s;
        fcfg.degrade_fraction = kDegradeFraction;
        fcfg.horizon_s = cfg_.horizon_s;
        // Derived deterministically so the fault stream replays with
        // the rest of the plan.
        fcfg.seed = cfg_.seed * 0x9E3779B97F4A7C15ULL + 0xFA17;
        faults_ =
            std::make_unique<sim::FaultInjector>(cluster, fcfg);
        driver.installFaults(*faults_);
    }
}

} // namespace quasar::churn
