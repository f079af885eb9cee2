/**
 * @file
 * PQ-reconstruction with Stochastic Gradient Descent, the latent-factor
 * model of the paper's Sec. 3.2 (Netflix-challenge style):
 *
 *   eps_ui = r_ui - mu - b_u - q_i . p_u
 *   q_i <- q_i + eta * (eps_ui * p_u - lambda * q_i)
 *   p_u <- p_u + eta * (eps_ui * q_i - lambda * p_u)
 *
 * with global mean mu and per-row (user) bias b_u. Factors are seeded
 * from a randomized truncated SVD of the mean-centered observed matrix
 * (P^T = Sigma V^T, Q = U), then SGD iterates over observed entries,
 * reshuffled every epoch, until the L2 error becomes marginal. A new
 * row is folded in by one joint ridge solve for its bias and factors.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hh"

namespace quasar::linalg
{

/** Ridge strength (per observation) used when folding in rows. */
constexpr double kFoldInRegularization = 0.01;
/** Initial SGD step eta (decays on overshoot). */
constexpr double kPqLearningRate = 0.1;
/** SGD regularization lambda. */
constexpr double kPqRegularization = 0.03;
/** Seed of the SVD sketch and of the entry-visit shuffle. */
constexpr uint64_t kPqSeed = 42;

/** Hyperparameters for PQ-reconstruction. */
struct PqConfig
{
    size_t rank = 8;            ///< number of latent factors.
    size_t max_epochs = 100;    ///< SGD epoch limit.
    double tolerance = 1e-6;    ///< stop when epoch RMSE delta is below.
};

/** Trained latent-factor model over a masked matrix. */
class PqModel
{
  public:
    explicit PqModel(PqConfig cfg = {}) : cfg_(cfg) {}

    /** Fit to the observed entries of a. */
    void fit(const MaskedMatrix &a);

    /** Predicted value at (r, c); valid after fit(). */
    double predict(size_t r, size_t c) const;

    /** Dense reconstruction of the full matrix. */
    Matrix reconstruct() const;

    /**
     * Fold in a new row that was not part of training: with item
     * factors fixed, solve the joint ridge system for the row's bias
     * (strength 1) and latent vector (kFoldInRegularization per
     * observation) from its observed entries, then predict the full
     * row. This is how the classifier estimates an incoming workload
     * from two profiling samples without refitting the whole model.
     *
     * @param observed (column, value) pairs for the new row.
     * @return predicted value for every column.
     */
    std::vector<double>
    foldInRow(const std::vector<std::pair<size_t, double>> &observed)
        const;

    /** @name Fitted parameters a folded-in row is predicted from */
    /// @{
    double globalMean() const { return mu_; }
    const std::vector<double> &columnBias() const { return col_bias_; }
    /** Item (column) factors: cols x rank. */
    const Matrix &columnFactors() const { return p_; }
    /// @}

    /** RMSE over observed entries at the end of training. */
    double trainRmse() const { return train_rmse_; }

    /** Number of SGD epochs actually run. */
    size_t epochsRun() const { return epochs_run_; }

    /** Host wall-clock seconds the last fit spent seeding the factors
     *  (the residual matrix, its randomized SVD and the split of the
     *  singular values). */
    double seedSeconds() const { return seed_s_; }

    const PqConfig &config() const { return cfg_; }

  private:
    PqConfig cfg_;
    size_t rows_ = 0;
    size_t cols_ = 0;
    double mu_ = 0.0;
    std::vector<double> row_bias_;
    std::vector<double> col_bias_;
    Matrix p_; ///< item (column) factors: cols x rank.
    Matrix q_; ///< user (row) factors: rows x rank.
    double train_rmse_ = 0.0;
    size_t epochs_run_ = 0;
    double seed_s_ = 0.0;
};

} // namespace quasar::linalg

