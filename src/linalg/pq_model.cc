#include "linalg/pq_model.hh"

#include <algorithm>
#include <cassert>
#include <chrono>
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
    seed_s_ = 0.0;
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
    // unobserved entries at zero (paper: P^T = Sigma V^T, Q = U). The
    // randomized sketch costs O(m n k) against Jacobi's O(m n^2);
    // Jacobi runs only on its k x n core.
    const auto seed_start = std::chrono::steady_clock::now();
    Matrix centered(rows_, cols_);
    for (size_t r = 0; r < rows_; ++r)
        for (size_t c = 0; c < cols_; ++c)
            if (a.observed(r, c))
                centered.at(r, c) = a.value(r, c) - mu_ -
                                    row_bias_[r] - col_bias_[c];
    SvdResult s = randomizedSvd(centered, k, 2, kPqSeed);

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
    seed_s_ = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - seed_start)
                  .count();

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

    stats::Rng rng(kPqSeed);
    double eta = kPqLearningRate;
    const double lambda = kPqRegularization;
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
                           kPqLearningRate / 20.0); // overshooting
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
    // With the column factors fixed, the row bias b and latent vector
    // q minimize
    //   sum_o (r_c - b - q . p_c)^2 + lambda_b b^2 + lambda n |q|^2,
    // r_c = v - mu - col_bias_c: one SPD system in x = [b, q], solved
    // by Gaussian elimination with partial pivoting on the augmented
    // (k+1) x (k+2) matrix a (row-major).
    const size_t k = q_.cols();
    const size_t dim = k + 1;
    const size_t w = dim + 1;
    const double n = double(observed.size());
    std::vector<double> a(dim * w, 0.0);
    a[0] = n + 1.0; // lambda_b = 1
    for (size_t f = 1; f < dim; ++f)
        a[f * w + f] = kFoldInRegularization * n;
    for (const auto &[c, v] : observed) {
        const double r = v - mu_ - col_bias_[c];
        a[dim] += r;
        for (size_t f = 0; f < k; ++f) {
            const double pf = p_.at(c, f);
            a[f + 1] += pf;
            a[(f + 1) * w] += pf;
            a[(f + 1) * w + dim] += pf * r;
            for (size_t g = 0; g < k; ++g)
                a[(f + 1) * w + g + 1] += pf * p_.at(c, g);
        }
    }
    for (size_t i = 0; i < dim; ++i) {
        size_t piv = i;
        for (size_t r = i + 1; r < dim; ++r)
            if (std::fabs(a[r * w + i]) > std::fabs(a[piv * w + i]))
                piv = r;
        std::swap_ranges(a.begin() + ptrdiff_t(i * w),
                         a.begin() + ptrdiff_t(i * w + w),
                         a.begin() + ptrdiff_t(piv * w));
        const double d = a[i * w + i];
        if (std::fabs(d) < 1e-12)
            continue;
        for (size_t r = i + 1; r < dim; ++r) {
            const double m = a[r * w + i] / d;
            if (m != 0.0)
                for (size_t c = i; c < w; ++c)
                    a[r * w + c] -= m * a[i * w + c];
        }
    }
    std::vector<double> x(dim, 0.0);
    for (size_t i = dim; i-- > 0;) {
        double acc = a[i * w + dim];
        for (size_t c = i + 1; c < dim; ++c)
            acc -= a[i * w + c] * x[c];
        const double d = a[i * w + i];
        x[i] = std::fabs(d) < 1e-12 ? 0.0 : acc / d;
    }

    std::vector<double> row(cols_);
    for (size_t c = 0; c < cols_; ++c) {
        double dot = 0.0;
        for (size_t f = 0; f < k; ++f)
            dot += x[f + 1] * p_.at(c, f);
        row[c] = mu_ + x[0] + col_bias_[c] + dot;
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
