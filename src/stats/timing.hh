/**
 * @file
 * Lightweight wall-clock instrumentation for the decision path:
 * streaming timer statistics plus an RAII scoped timer. Used to
 * aggregate classify / rank / place / adapt latencies into
 * QuasarStats and the bench reports without measurable overhead when
 * a section is never entered.
 *
 * All accumulation is O(1) and allocation-free; a TimerStat is a POD
 * that can live inside hot objects (scheduler, classifier, manager
 * stats) and be read at any time.
 */

#pragma once

#include <chrono>
#include <cstdint>

namespace quasar::stats
{

/** Streaming count/total/max accumulator for one timed section. */
struct TimerStat
{
    uint64_t count = 0;
    double total_s = 0.0;
    double max_s = 0.0;

    void add(double seconds)
    {
        ++count;
        total_s += seconds;
        if (seconds > max_s)
            max_s = seconds;
    }

    /** Mean seconds per sample; 0 when nothing was recorded. */
    double meanSeconds() const
    {
        return count ? total_s / double(count) : 0.0;
    }

    void reset() { *this = TimerStat{}; }
};

/**
 * RAII timer: measures the scope's wall-clock duration on a steady
 * clock and adds it to the given TimerStat on destruction.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(TimerStat &stat)
        : stat_(stat), start_(std::chrono::steady_clock::now())
    {
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    ~ScopedTimer()
    {
        auto end = std::chrono::steady_clock::now();
        stat_.add(std::chrono::duration<double>(end - start_).count());
    }

  private:
    TimerStat &stat_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace quasar::stats

