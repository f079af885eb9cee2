/**
 * @file
 * The Quasar classification engine (paper Sec. 3.2).
 *
 * Four independent collaborative-filtering classifications — scale-up,
 * scale-out, heterogeneity, and interference (tolerated and caused) —
 * turn a workload's handful of profiling samples into dense
 * performance estimates, by exploiting the rows of previously
 * scheduled workloads plus a small set of offline-characterized seed
 * workloads.
 *
 * Rows are normalized before completion so that values are comparable
 * across workloads of very different absolute performance:
 *  - scale-up rows by the reference-configuration measurement,
 *  - scale-out rows by the single-node measurement,
 *  - heterogeneity rows by the profiling-platform measurement,
 *  - interference rows are raw (intensities in [0, 1], pressures per
 *    core).
 *
 * An exhaustive single-classification mode (every allocation x
 * assignment combination as one matrix) is provided for the paper's
 * Table 2 / Fig. 3e ablation.
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/estimate.hh"
#include "linalg/pq_model.hh"
#include "profiling/profiler.hh"
#include "stats/rng.hh"
#include "workload/workload.hh"

namespace quasar::core
{

/** Classification-engine knobs. */
struct ClassifierConfig
{
    linalg::PqConfig pq;
    /** Online history rows kept per matrix (oldest evicted). */
    size_t max_history_rows = 300;
    /** Use the single exhaustive classification (ablation mode). */
    bool exhaustive = false;
};

/** The four parallel classifications (paper Sec. 3.2). */
enum class Axis
{
    ScaleUp,
    ScaleOut,
    Heterogeneity,
    Interference,
};
constexpr size_t kNumAxes = 4;

/** Latent-factor fit work done so far, summed over every matrix. */
struct FitCounters
{
    uint64_t fits = 0;         ///< PqModel::fit calls.
    uint64_t epochs = 0;       ///< sum of PqModel::epochsRun().
    uint64_t capped_fits = 0;  ///< fits whose SGD ran max_epochs.
    uint64_t entry_visits = 0; ///< sum of epochs x observed entries.
    double fit_s = 0.0;        ///< host wall-clock seconds in fit.
    double seed_s = 0.0;       ///< of fit_s, seconds in the SVD seed.
};

/** The four (or one, in exhaustive mode) CF classifications. */
class Classifier
{
  public:
    Classifier(const profiling::Profiler &profiler, ClassifierConfig cfg,
               uint64_t seed = 1234);

    /**
     * Exhaustively profile a few workloads offline and store their
     * dense rows (paper: 20-30 workload types profiled offline to
     * anchor the matrices).
     */
    void seedOffline(const std::vector<workload::Workload> &seeds,
                     double t);

    /**
     * Classify one workload from its profiling data: complete all
     * matrices and return dense estimates. Appends the workload's
     * observed row to the online history.
     */
    WorkloadEstimate classify(const workload::Workload &w,
                              const profiling::ProfilingData &data);

    /**
     * Runtime feedback (paper's misclassification loop): overwrite the
     * scale-up estimate at one column with an observed normalized
     * value and record it in history for future classifications.
     */
    void feedbackScaleUp(WorkloadEstimate &est, size_t column,
                         double observed_perf);

    /** @name Introspection (tests/benches) */
    /// @{
    size_t onlineRows() const;
    size_t seedRows() const;
    const ClassifierConfig &config() const { return cfg_; }
    const FitCounters &fitCounters() const { return fit_counters_; }
    /**
     * Whether the matrix that classifies workloads of type t along
     * `axis` holds max_history_rows online rows (in exhaustive mode
     * every axis reads the one exhaustive matrix).
     */
    bool historyFull(Axis axis, workload::WorkloadType t) const;
    /// @}

  private:
    /** One workload's observed entries in one matrix. */
    struct SparseRow
    {
        std::vector<std::pair<size_t, double>> entries;
    };

    /** A classification matrix: seed rows + bounded online history. */
    struct History
    {
        size_t cols = 0;
        std::vector<SparseRow> seeds;
        std::vector<SparseRow> online;

        /** Cached latent-factor fit (refit schedule: completeRow). */
        linalg::PqModel model;
        /** Online rows ever added, evicted ones included. */
        size_t online_added = 0;
        /** Seed + online rows ever added when the model was fitted. */
        size_t fitted_seen = 0;
        bool has_model = false;

        void addOnline(SparseRow row, size_t max_rows);
        linalg::MaskedMatrix build() const;
    };

    /**
     * Fold the observed row into the history's cached model, refitting
     * first on a doubling schedule: once the rows ever added (seeds
     * included, evicted online rows too) reach 2 x their count at the
     * last fit + 8. Below the history cap that is 2 x the rows the
     * last fit saw + 8; at the cap the model keeps learning, with
     * geometrically spaced refits. A fit is on at most the rows ever
     * added at its time, and those counts at least double from fit to
     * fit, so the rows fitted in total stay below twice the rows ever
     * added: per-arrival fit work is bounded by a constant.
     */
    std::vector<double> completeRow(History &h, const SparseRow &observed);

    WorkloadEstimate classifyParallel(const workload::Workload &w,
                                      const profiling::ProfilingData &d);
    WorkloadEstimate classifyExhaustive(const workload::Workload &w,
                                        const profiling::ProfilingData &d);

    /** Scale-up history for the workload's grid kind. */
    History &scaleUpHistory(workload::WorkloadType t);
    const History &scaleUpHistory(workload::WorkloadType t) const;
    History &exhaustiveHistory(workload::WorkloadType t);

    /** Column layout of the exhaustive matrix for a grid kind. */
    size_t exhaustiveCols(workload::WorkloadType t) const;

    const profiling::Profiler &profiler_;
    ClassifierConfig cfg_;
    stats::Rng rng_;

    /** Grids (fixed at construction from the profiler's catalog). */
    std::vector<workload::ScaleUpConfig> grid_analytics_;
    std::vector<workload::ScaleUpConfig> grid_generic_;
    std::vector<int> node_grid_;

    /** Scale-up history per workload type (paper: per-type tailoring;
     *  the response shapes of e.g. memcached and SPEC differ too much
     *  to share a matrix). Analytics has its own grid; the other three
     *  share the generic grid but keep separate rows. */
    History scale_up_analytics_;
    History scale_up_latency_;
    History scale_up_stateful_;
    History scale_up_generic_;
    /** Scale-out and interference histories, one per workload type
     *  (index = WorkloadType). */
    std::array<History, 4> scale_out_;
    History heterogeneity_;
    /** 2 * kNumSources cols: tolerated then caused, per type. */
    std::array<History, 4> interference_;

    History exhaustive_analytics_;
    History exhaustive_generic_;

    FitCounters fit_counters_;
};

} // namespace quasar::core

