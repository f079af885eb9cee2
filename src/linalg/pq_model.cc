#include "linalg/pq_model.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <random>

#include "stats/rng.hh"

#include "linalg/svd.hh"

namespace quasar::linalg
{

void
PqModel::fit(const MaskedMatrix &a)
{
    rows_ = a.rows();
    cols_ = a.cols();
    const size_t k = std::max<size_t>(
        1, std::min({cfg_.rank, rows_, cols_}));

    mu_ = a.observedMean();
    row_bias_.assign(rows_, 0.0);
    col_bias_.assign(cols_, 0.0);

    // A history can legally be empty at the first classify call (no
    // offline seeding, no online rows yet). Keep the flat mu+bias
    // model rather than asking the SVD for a rank-0 sketch of an
    // empty matrix; fold-in then predicts mu_ + col_bias_, exactly
    // what the full path degenerates to with nothing observed.
    if (rows_ == 0 || cols_ == 0 || a.numObserved() == 0) {
        q_ = Matrix(rows_, k);
        p_ = Matrix(cols_, k);
        return;
    }

    // Initialize biases from shrunk column and row means so the
    // population's average response shape lives in the biases and the
    // latent factors only carry per-row deviation. Without this, a
    // high-rank fit on few dense rows absorbs the column structure
    // into the factors, and folded-in rows (whose factors are shrunk
    // by ridge) degenerate toward a flat prediction.
    {
        std::vector<double> col_sum(cols_, 0.0);
        std::vector<size_t> col_n(cols_, 0);
        for (size_t r = 0; r < rows_; ++r)
            for (size_t c = 0; c < cols_; ++c)
                if (a.observed(r, c)) {
                    col_sum[c] += a.value(r, c) - mu_;
                    ++col_n[c];
                }
        for (size_t c = 0; c < cols_; ++c)
            col_bias_[c] = col_sum[c] / (double(col_n[c]) + 3.0);
        std::vector<double> row_sum(rows_, 0.0);
        std::vector<size_t> row_n(rows_, 0);
        for (size_t r = 0; r < rows_; ++r)
            for (size_t c = 0; c < cols_; ++c)
                if (a.observed(r, c)) {
                    row_sum[r] += a.value(r, c) - mu_ - col_bias_[c];
                    ++row_n[r];
                }
        for (size_t r = 0; r < rows_; ++r)
            row_bias_[r] = row_sum[r] / (double(row_n[r]) + 3.0);
    }

    // Seed factors from the SVD of the fully-debiased residual with
    // unobserved entries at zero (paper: P^T = Sigma V^T, Q = U).
    Matrix centered(rows_, cols_);
    for (size_t r = 0; r < rows_; ++r)
        for (size_t c = 0; c < cols_; ++c)
            if (a.observed(r, c))
                centered.at(r, c) = a.value(r, c) - mu_ -
                                    row_bias_[r] - col_bias_[c];
    // Jacobi is exact but O(m n^2); fall back to randomized truncated
    // SVD for the wide matrices of the exhaustive classification.
    SvdResult s = (cols_ > 64 || rows_ * cols_ > 20000)
                      ? randomizedSvd(centered, k, 2, cfg_.seed)
                      : svd(centered, k);

    // Split the singular values symmetrically (Q = U sqrt(S),
    // P = V sqrt(S)); the paper's asymmetric split (P^T = S V^T)
    // reconstructs identically but leaves P entries of magnitude
    // sigma_1, which makes the first SGD steps unstable.
    q_ = Matrix(rows_, k);
    p_ = Matrix(cols_, k);
    for (size_t f = 0; f < s.rank(); ++f) {
        double root = std::sqrt(std::max(s.singular[f], 0.0));
        for (size_t r = 0; r < rows_; ++r)
            q_.at(r, f) = s.u.at(r, f) * root;
        for (size_t c = 0; c < cols_; ++c)
            p_.at(c, f) = s.v.at(c, f) * root;
    }

    // Collect observed entries once.
    struct Entry { size_t r, c; double v; };
    std::vector<Entry> entries;
    entries.reserve(a.numObserved());
    for (size_t r = 0; r < rows_; ++r)
        for (size_t c = 0; c < cols_; ++c)
            if (a.observed(r, c))
                entries.push_back({r, c, a.value(r, c)});

    if (entries.empty()) {
        train_rmse_ = 0.0;
        epochs_run_ = 0;
        return;
    }

    stats::Rng rng(cfg_.seed);
    double eta = cfg_.learning_rate;
    const double lambda = cfg_.regularization;
    double prev_rmse = std::numeric_limits<double>::infinity();

    for (epochs_run_ = 0; epochs_run_ < cfg_.max_epochs; ++epochs_run_) {
        std::shuffle(entries.begin(), entries.end(), rng.engine());
        double sq = 0.0;
        bool diverged = false;
        for (const Entry &e : entries) {
            double dot = 0.0;
            for (size_t f = 0; f < k; ++f)
                dot += q_.at(e.r, f) * p_.at(e.c, f);
            if (!std::isfinite(dot)) {
                diverged = true;
                break;
            }
            double eps = e.v - mu_ - row_bias_[e.r] -
                         col_bias_[e.c] - dot;
            // Clip pathological residuals so a bad step cannot blow
            // the factors up (SGD with a too-large eta diverges).
            eps = std::clamp(eps, -1e3, 1e3);
            sq += eps * eps;
            row_bias_[e.r] += eta * (eps - lambda * row_bias_[e.r]);
            col_bias_[e.c] += eta * (eps - lambda * col_bias_[e.c]);
            for (size_t f = 0; f < k; ++f) {
                double qv = q_.at(e.r, f);
                double pv = p_.at(e.c, f);
                q_.at(e.r, f) = qv + eta * (eps * pv - lambda * qv);
                p_.at(e.c, f) = pv + eta * (eps * qv - lambda * pv);
            }
        }
        double rmse = std::sqrt(sq / double(entries.size()));
        if (diverged || !std::isfinite(rmse)) {
            // Divergence: restart from small random factors with a
            // much gentler learning rate.
            std::normal_distribution<double> g(0.0, 0.01);
            for (size_t r = 0; r < rows_; ++r)
                for (size_t f = 0; f < k; ++f)
                    q_.at(r, f) = g(rng.engine());
            for (size_t c = 0; c < cols_; ++c)
                for (size_t f = 0; f < k; ++f)
                    p_.at(c, f) = g(rng.engine());
            std::fill(row_bias_.begin(), row_bias_.end(), 0.0);
            std::fill(col_bias_.begin(), col_bias_.end(), 0.0);
            eta *= 0.3;
            prev_rmse = std::numeric_limits<double>::infinity();
            continue;
        }
        train_rmse_ = rmse;
        if (rmse > prev_rmse * 1.02)
            eta = std::max(eta * 0.7,
                           cfg_.learning_rate / 20.0); // overshooting
        if (std::fabs(prev_rmse - rmse) < cfg_.tolerance)
            break;
        prev_rmse = rmse;
    }
}

double
PqModel::predict(size_t r, size_t c) const
{
    assert(r < rows_ && c < cols_);
    double dot = 0.0;
    for (size_t f = 0; f < q_.cols(); ++f)
        dot += q_.at(r, f) * p_.at(c, f);
    return mu_ + row_bias_[r] + col_bias_[c] + dot;
}

std::vector<double>
PqModel::foldInRow(
    const std::vector<std::pair<size_t, double>> &observed) const
{
    const size_t k = q_.cols();
    const double lambda =
        std::max(cfg_.fold_in_regularization, 1e-4);
    const double lambda_b = 1.0;

    // The ridge matrix P_o^T P_o + lambda n I does not depend on the
    // bias, so it is built and eliminated once per call: each step's
    // pivot row and multipliers are recorded, and every iteration
    // replays them on its right-hand side. These are the floating-
    // point operations, in the same order, of eliminating the
    // augmented system afresh per iteration (DESIGN.md §9).
    std::vector<double> u(k * k, 0.0); // row-major, becomes U
    for (size_t f = 0; f < k; ++f)
        u[f * k + f] = lambda * double(observed.size());
    for (const auto &[c, v] : observed)
        for (size_t f = 0; f < k; ++f) {
            double pf = p_.at(c, f);
            for (size_t g = 0; g < k; ++g)
                u[f * k + g] += pf * p_.at(c, g);
        }
    std::vector<size_t> pivot(k);
    // mult[i * k + r]: row r's multiplier at step i; 0 = no update.
    std::vector<double> mult(k * k, 0.0);
    for (size_t i = 0; i < k; ++i) {
        size_t piv = i;
        for (size_t r = i + 1; r < k; ++r)
            if (std::fabs(u[r * k + i]) > std::fabs(u[piv * k + i]))
                piv = r;
        pivot[i] = piv;
        std::swap_ranges(u.begin() + ptrdiff_t(i * k),
                         u.begin() + ptrdiff_t(i * k + k),
                         u.begin() + ptrdiff_t(piv * k));
        double d = u[i * k + i];
        if (std::fabs(d) < 1e-12)
            continue;
        for (size_t r = i + 1; r < k; ++r) {
            double f = u[r * k + i] / d;
            mult[i * k + r] = f;
            if (f == 0.0)
                continue;
            for (size_t c = i; c < k; ++c)
                u[r * k + c] -= f * u[i * k + c];
        }
    }

    std::vector<double> qu(k, 0.0);
    std::vector<double> b(k);
    double bu = 0.0;
    for (int iter = 0; iter < 20; ++iter) {
        // Bias given factors.
        double acc = 0.0;
        for (const auto &[c, v] : observed) {
            double dot = 0.0;
            for (size_t f = 0; f < k; ++f)
                dot += qu[f] * p_.at(c, f);
            acc += v - mu_ - col_bias_[c] - dot;
        }
        bu = acc / (double(observed.size()) + lambda_b);

        // Ridge solve for the latent vector given the bias.
        std::fill(b.begin(), b.end(), 0.0);
        for (const auto &[c, v] : observed) {
            double y = v - mu_ - bu - col_bias_[c];
            for (size_t f = 0; f < k; ++f)
                b[f] += p_.at(c, f) * y;
        }
        for (size_t i = 0; i < k; ++i) {
            std::swap(b[i], b[pivot[i]]);
            for (size_t r = i + 1; r < k; ++r) {
                double f = mult[i * k + r];
                if (f != 0.0)
                    b[r] -= f * b[i];
            }
        }
        for (size_t ii = k; ii-- > 0;) {
            double x = b[ii];
            for (size_t c = ii + 1; c < k; ++c)
                x -= u[ii * k + c] * qu[c];
            double d = u[ii * k + ii];
            qu[ii] = std::fabs(d) < 1e-12 ? 0.0 : x / d;
        }
    }

    std::vector<double> row(cols_);
    for (size_t c = 0; c < cols_; ++c) {
        double dot = 0.0;
        for (size_t f = 0; f < k; ++f)
            dot += qu[f] * p_.at(c, f);
        row[c] = mu_ + bu + col_bias_[c] + dot;
    }
    // Observed entries are measurements: keep them exact.
    for (const auto &[c, v] : observed)
        row[c] = v;
    return row;
}

Matrix
PqModel::reconstruct() const
{
    Matrix out(rows_, cols_);
    for (size_t r = 0; r < rows_; ++r)
        for (size_t c = 0; c < cols_; ++c)
            out.at(r, c) = predict(r, c);
    return out;
}

} // namespace quasar::linalg
