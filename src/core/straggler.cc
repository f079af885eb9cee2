#include "core/straggler.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace quasar::core
{

double
MapTask::progressAt(double t) const
{
    if (duration <= 0.0)
        return 1.0;
    return std::min(1.0, t / duration);
}

TaskWave
TaskWave::make(stats::Rng &rng, size_t num_tasks, double median_duration,
               double straggler_frac, double slow_factor)
{
    assert(num_tasks > 0 && median_duration > 0.0 && slow_factor > 1.0);
    TaskWave wave;
    wave.median_duration = median_duration;
    wave.tasks.reserve(num_tasks);
    for (size_t i = 0; i < num_tasks; ++i) {
        MapTask task;
        task.duration = median_duration * rng.lognormalNoise(0.08);
        task.straggler = rng.chance(straggler_frac);
        if (task.straggler)
            task.duration *= slow_factor;
        wave.tasks.push_back(task);
    }
    // Guarantee at least one straggler so detection metrics exist.
    bool any = false;
    for (const MapTask &t : wave.tasks)
        any = any || t.straggler;
    if (!any) {
        wave.tasks.front().straggler = true;
        wave.tasks.front().duration *= slow_factor;
    }
    return wave;
}

double
DetectionResult::meanDetectTime() const
{
    double sum = 0.0;
    size_t n = 0;
    for (double t : detect_time) {
        if (t >= 0.0) {
            sum += t;
            ++n;
        }
    }
    return n ? sum / double(n) : -1.0;
}

double
DetectionResult::recall(const TaskWave &wave) const
{
    size_t caught = 0, total = 0;
    for (size_t i = 0; i < wave.tasks.size(); ++i) {
        if (wave.tasks[i].straggler) {
            ++total;
            if (detect_time[i] >= 0.0)
                ++caught;
        }
    }
    return total ? double(caught) / double(total) : 1.0;
}

size_t
DetectionResult::falsePositives(const TaskWave &wave) const
{
    size_t fp = 0;
    for (size_t i = 0; i < wave.tasks.size(); ++i)
        if (!wave.tasks[i].straggler && detect_time[i] >= 0.0)
            ++fp;
    return fp;
}

namespace
{

/** Noisy progress vector at time t. */
std::vector<double>
reportProgress(const TaskWave &wave, double t, double noise,
               stats::Rng &rng)
{
    std::vector<double> p;
    p.reserve(wave.tasks.size());
    for (const MapTask &task : wave.tasks) {
        double v = task.progressAt(t);
        if (v < 1.0)
            v = std::min(1.0, v * rng.lognormalNoise(noise));
        p.push_back(v);
    }
    return p;
}

double
median(std::vector<double> v)
{
    assert(!v.empty());
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
}

/** Progress report period, seconds. */
constexpr double kReportInterval = 5.0;

/** Hadoop: deficit threshold, sustained reports required, warmup. */
constexpr double kHadoopDeficit = 0.50;
constexpr size_t kHadoopSustain = 7;
constexpr double kHadoopWarmup = 60.0;

/** LATE: ETA excess threshold, sustained reports, warmup. */
constexpr double kLateEtaExcess = 0.60;
constexpr size_t kLateSustain = 11;
constexpr double kLateWarmup = 30.0;

/** Quasar: candidate deficit, sustain, probe duration, warmup. */
constexpr double kQuasarDeficit = 0.50;
constexpr size_t kQuasarSustain = 7;
constexpr double kQuasarProbeTime = 12.0;
constexpr double kQuasarWarmup = 30.0;

/**
 * Generic sustained-deficit scan: flag task i when deficient(i, t)
 * holds for `sustain` consecutive reports after `warmup`, and record
 * flag time + extra_delay.
 */
template <typename Deficient>
DetectionResult
scanSustained(const TaskWave &wave, const DetectorConfig &cfg,
              stats::Rng &rng, double warmup, size_t sustain,
              double extra_delay, bool require_straggler_confirm,
              Deficient deficient)
{
    const size_t n = wave.tasks.size();
    DetectionResult res;
    res.detect_time.assign(n, -1.0);
    std::vector<size_t> streak(n, 0);

    double horizon = 0.0;
    for (const MapTask &t : wave.tasks)
        horizon = std::max(horizon, t.duration);

    for (double t = kReportInterval; t <= horizon; t += kReportInterval) {
        std::vector<double> p =
            reportProgress(wave, t, cfg.progress_noise, rng);
        double med = median(p);
        for (size_t i = 0; i < n; ++i) {
            if (res.detect_time[i] >= 0.0 || p[i] >= 1.0)
                continue;
            if (t < warmup) {
                streak[i] = 0;
                continue;
            }
            if (deficient(i, t, p, med)) {
                if (++streak[i] >= sustain) {
                    // Quasar's confirmation probe rejects candidates
                    // whose slowdown is not interference-caused.
                    if (require_straggler_confirm &&
                        !wave.tasks[i].straggler) {
                        streak[i] = 0;
                        continue;
                    }
                    res.detect_time[i] = t + extra_delay;
                }
            } else {
                streak[i] = 0;
            }
        }
    }
    return res;
}

} // namespace

DetectionResult
detectHadoop(const TaskWave &wave, const DetectorConfig &cfg,
             stats::Rng &rng)
{
    return scanSustained(
        wave, cfg, rng, kHadoopWarmup, kHadoopSustain, 0.0, false,
        [](size_t i, double, const std::vector<double> &p, double med) {
            return p[i] < (1.0 - kHadoopDeficit) * med;
        });
}

DetectionResult
detectLate(const TaskWave &wave, const DetectorConfig &cfg,
           stats::Rng &rng)
{
    return scanSustained(
        wave, cfg, rng, kLateWarmup, kLateSustain, 0.0, false,
        [](size_t i, double t, const std::vector<double> &p, double med) {
            // Estimated total duration from current progress.
            double eta_i = p[i] > 1e-9 ? t / p[i] : 1e18;
            double eta_med = med > 1e-9 ? t / med : 1e18;
            return eta_i > (1.0 + kLateEtaExcess) * eta_med;
        });
}

DetectionResult
detectQuasar(const TaskWave &wave, const DetectorConfig &cfg,
             stats::Rng &rng)
{
    return scanSustained(
        wave, cfg, rng, kQuasarWarmup, kQuasarSustain, kQuasarProbeTime,
        true,
        [](size_t i, double, const std::vector<double> &p, double med) {
            return p[i] < (1.0 - kQuasarDeficit) * med;
        });
}

} // namespace quasar::core
