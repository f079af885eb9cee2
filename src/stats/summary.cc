#include "stats/summary.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace quasar::stats
{

void
Accumulator::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / double(n_);
    m2_ += delta * (x - mean_);
}

double
Accumulator::variance() const
{
    return n_ > 1 ? m2_ / double(n_ - 1) : 0.0;
}

double
Accumulator::stddev() const
{
    return std::sqrt(variance());
}

void
Samples::addAll(const std::vector<double> &xs)
{
    xs_.insert(xs_.end(), xs.begin(), xs.end());
}

double
Samples::mean() const
{
    if (xs_.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs_)
        s += x;
    return s / double(xs_.size());
}

double
Samples::stddev() const
{
    if (xs_.size() < 2)
        return 0.0;
    double m = mean();
    double s = 0.0;
    for (double x : xs_)
        s += (x - m) * (x - m);
    return std::sqrt(s / double(xs_.size() - 1));
}

double
Samples::min() const
{
    return xs_.empty() ? 0.0 : *std::min_element(xs_.begin(), xs_.end());
}

double
Samples::max() const
{
    return xs_.empty() ? 0.0 : *std::max_element(xs_.begin(), xs_.end());
}

double
Samples::percentile(double p) const
{
    // Out-of-range or NaN ranks must not reach the interpolation
    // below: a negative rank cast to size_t is UB, and release
    // builds compile the assert away. NaN orders below everything,
    // matching "no meaningful rank requested".
    if (!(p >= 0.0))
        p = 0.0;
    else if (p > 100.0)
        p = 100.0;
    if (xs_.empty())
        return 0.0;
    std::vector<double> sorted(xs_);
    std::sort(sorted.begin(), sorted.end());
    if (sorted.size() == 1)
        return sorted[0];
    double rank = p / 100.0 * double(sorted.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - double(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double
Samples::fractionBelow(double threshold) const
{
    if (xs_.empty())
        return 0.0;
    size_t n = 0;
    for (double x : xs_)
        if (x <= threshold)
            ++n;
    return double(n) / double(xs_.size());
}

StateDwell::StateDwell(size_t num_states, size_t initial_state)
    : seconds_(num_states, 0.0), state_(initial_state)
{
    assert(initial_state < num_states);
}

void
StateDwell::observe(double now)
{
    if (!started_) {
        started_ = true;
        last_ = now;
        return;
    }
    seconds_[state_] += std::max(now - last_, 0.0);
    last_ = now;
}

void
StateDwell::transitionTo(size_t state, double now)
{
    assert(state < seconds_.size());
    observe(now);
    if (state != state_)
        ++transitions_;
    state_ = state;
}

double
StateDwell::secondsIn(size_t state) const
{
    return state < seconds_.size() ? seconds_[state] : 0.0;
}

double
StateDwell::fractionIn(size_t state) const
{
    double total = 0.0;
    for (double s : seconds_)
        total += s;
    return total > 0.0 ? secondsIn(state) / total : 0.0;
}

ErrorReport
makeErrorReport(const Samples &errors)
{
    ErrorReport r;
    r.avg = errors.mean();
    r.p90 = errors.percentile(90.0);
    r.max = errors.max();
    return r;
}

std::string
formatErrorReport(const ErrorReport &r)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%5.1f%% / %5.1f%% / %5.1f%%",
                  r.avg * 100.0, r.p90 * 100.0, r.max * 100.0);
    return buf;
}

std::string
formatCdfTable(const std::vector<double> &values,
               const std::string &value_label, size_t rows)
{
    Samples s;
    s.addAll(values);
    std::string out = "  pctl   " + value_label + "\n";
    char buf[64];
    for (size_t i = 0; i <= rows; ++i) {
        double p = 100.0 * double(i) / double(rows);
        std::snprintf(buf, sizeof(buf), "  %5.1f  %10.3f\n", p,
                      s.percentile(p));
        out += buf;
    }
    return out;
}

} // namespace quasar::stats
