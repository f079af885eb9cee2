/**
 * @file
 * Streaming and batch summary statistics: mean/stddev accumulation,
 * percentiles over stored samples, and error-report helpers used by the
 * classification-validation experiments (paper Table 2).
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace quasar::stats
{

/**
 * Welford-style streaming accumulator for mean and variance; does not
 * store samples.
 */
class Accumulator
{
  public:
    void add(double x);

    size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double variance() const;
    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return sum_; }

  private:
    size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Sample set with percentile queries. Stores all samples; intended for
 * experiment post-processing, not hot paths.
 */
class Samples
{
  public:
    void add(double x) { xs_.push_back(x); }
    void addAll(const std::vector<double> &xs);

    size_t count() const { return xs_.size(); }
    bool empty() const { return xs_.empty(); }
    double mean() const;
    double stddev() const;
    double min() const;
    double max() const;

    /**
     * Linear-interpolated percentile.
     * @param p percentile, clamped into [0, 100] (NaN maps to 0,
     *        i.e. the minimum); 0.0 on an empty sample set. Safe to
     *        call from report/bench code without pre-validation.
     */
    double percentile(double p) const;

    /** Fraction of samples satisfying x <= threshold. */
    double fractionBelow(double threshold) const;

    const std::vector<double> &values() const { return xs_; }

  private:
    std::vector<double> xs_;
};

/**
 * Time-in-state accounting over a small enumerated state space (e.g.
 * the overload controller's Normal/Pressured/Overloaded machine).
 * States are dense small integers; time advances monotonically via
 * observe()/transitionTo(). Used for "time in overload" reporting.
 */
class StateDwell
{
  public:
    explicit StateDwell(size_t num_states, size_t initial_state = 0);

    /** Credit elapsed time to the current state (now >= last call). */
    void observe(double now);

    /** Credit elapsed time, then switch to `state`. */
    void transitionTo(size_t state, double now);

    size_t state() const { return state_; }
    size_t transitions() const { return transitions_; }

    /** Seconds credited to `state` so far (up to the last observe). */
    double secondsIn(size_t state) const;

    /** secondsIn / total observed time; 0 before any time passes. */
    double fractionIn(size_t state) const;

  private:
    std::vector<double> seconds_;
    size_t state_ = 0;
    size_t transitions_ = 0;
    double last_ = 0.0;
    bool started_ = false;
};

/**
 * avg / 90th-percentile / max triple, the error format of paper
 * Table 2.
 */
struct ErrorReport
{
    double avg = 0.0;
    double p90 = 0.0;
    double max = 0.0;
};

/** Build an ErrorReport from a set of absolute relative errors. */
ErrorReport makeErrorReport(const Samples &errors);

/** Render an ErrorReport as "a% / b% / c%" for bench output. */
std::string formatErrorReport(const ErrorReport &r);

/** Render samples as an ASCII CDF table with the given column labels. */
std::string formatCdfTable(const std::vector<double> &values,
                           const std::string &value_label,
                           size_t rows = 10);

} // namespace quasar::stats

