#include "core/monitor.hh"

#include <cmath>

namespace quasar::core
{

namespace
{

/** Alert when normalized perf falls below 1 - this. */
constexpr double kUnderperfTolerance = 0.07;
/** Alert when normalized perf exceeds this (resources idle). */
constexpr double kOverprovisionThreshold = 1.45;
/** Tolerance deviation that signals a phase change. */
constexpr double kPhaseDeviation = 0.16;
/** Sources probed per proactive phase check. */
constexpr size_t kPhaseProbeSources = 3;

} // namespace

double
Monitor::measure(const workload::Workload &w, double t)
{
    double perf = oracle_.normalizedPerformance(w, t);
    return perf * rng_.lognormalNoise(cfg_.noise_sigma);
}

double
Monitor::measureAbsolute(const workload::Workload &w, double t)
{
    double value = workload::isLatencyCritical(w.type)
                       ? oracle_.serviceCapacityQps(w, t)
                       : oracle_.currentRate(w, t);
    return value * rng_.lognormalNoise(cfg_.noise_sigma);
}

Alert
Monitor::check(const workload::Workload &w, double t)
{
    double perf = measure(w, t);
    if (perf < 1.0 - kUnderperfTolerance)
        return Alert::Underperforming;
    if (perf > kOverprovisionThreshold)
        return Alert::Overprovisioned;
    return Alert::None;
}

bool
Monitor::probePhaseChange(const workload::Workload &w,
                          const WorkloadEstimate &est,
                          const profiling::Profiler &profiler, double t)
{
    const auto &top =
        profiler.catalog()[profiler.scaleUpPlatform()];
    // A phase change shifts sensitivity coherently across resources,
    // while a single-source deviation is more likely classification
    // noise — require a majority of probed sources to deviate before
    // signaling (keeps the false-positive rate near the paper's 8%).
    // Probe only informative sources: one whose tolerance is already
    // saturated at 1.0 cannot show a deviation.
    auto perm = rng_.permutation(interference::kNumSources);
    size_t probes = 0;
    size_t deviated = 0;
    for (size_t i : perm) {
        if (probes >= kPhaseProbeSources)
            break;
        if (est.tolerated[i] >= 0.97)
            continue;
        ++probes;
        double now = profiler.probeTolerance(
            w, t, top, est.reference, interference::sourceAt(i));
        if (std::fabs(now - est.tolerated[i]) > kPhaseDeviation)
            ++deviated;
    }
    return probes > 0 && 2 * deviated > probes;
}

} // namespace quasar::core
