/**
 * @file
 * Tests for the linear-algebra substrate: dense matrices, masked
 * matrices, one-sided Jacobi SVD, randomized truncated SVD,
 * PQ-reconstruction with SGD, fold-in, and completion accuracy — the
 * machinery behind Quasar's collaborative-filtering classification.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "stats/rng.hh"

#include "linalg/matrix.hh"
#include "linalg/pq_model.hh"
#include "linalg/svd.hh"

using namespace quasar::linalg;

namespace
{

/** Random rank-k matrix plus optional noise. */
Matrix
lowRank(size_t m, size_t n, size_t k, uint64_t seed, double noise = 0.0)
{
    quasar::stats::Rng rng(seed);
    std::normal_distribution<double> g(0.0, 1.0);
    Matrix a(m, k), b(k, n);
    for (size_t i = 0; i < m; ++i)
        for (size_t f = 0; f < k; ++f)
            a.at(i, f) = g(rng.engine());
    for (size_t f = 0; f < k; ++f)
        for (size_t j = 0; j < n; ++j)
            b.at(f, j) = g(rng.engine());
    Matrix out = a.multiply(b);
    if (noise > 0.0)
        for (size_t i = 0; i < m; ++i)
            for (size_t j = 0; j < n; ++j)
                out.at(i, j) += noise * g(rng.engine());
    return out;
}

double
relErr(const Matrix &a, const Matrix &b)
{
    double denom = a.frobeniusNorm();
    Matrix d(a.rows(), a.cols());
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < a.cols(); ++j)
            d.at(i, j) = a.at(i, j) - b.at(i, j);
    return denom > 0 ? d.frobeniusNorm() / denom : 0.0;
}

} // namespace

TEST(Matrix, MultiplyIdentity)
{
    Matrix a(2, 3);
    a.at(0, 0) = 1;
    a.at(0, 2) = 2;
    a.at(1, 1) = 3;
    Matrix eye(3, 3);
    for (int i = 0; i < 3; ++i)
        eye.at(i, i) = 1.0;
    Matrix c = a.multiply(eye);
    EXPECT_DOUBLE_EQ(c.maxAbsDiff(a), 0.0);
}

TEST(Matrix, MultiplyKnown)
{
    Matrix a(2, 2), b(2, 2);
    a.at(0, 0) = 1;
    a.at(0, 1) = 2;
    a.at(1, 0) = 3;
    a.at(1, 1) = 4;
    b.at(0, 0) = 5;
    b.at(0, 1) = 6;
    b.at(1, 0) = 7;
    b.at(1, 1) = 8;
    Matrix c = a.multiply(b);
    EXPECT_DOUBLE_EQ(c.at(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(c.at(0, 1), 22.0);
    EXPECT_DOUBLE_EQ(c.at(1, 0), 43.0);
    EXPECT_DOUBLE_EQ(c.at(1, 1), 50.0);
}

TEST(Matrix, TransposeRoundTrip)
{
    Matrix a = lowRank(4, 7, 3, 1);
    Matrix t = a.transpose();
    EXPECT_EQ(t.rows(), 7u);
    EXPECT_EQ(t.cols(), 4u);
    EXPECT_DOUBLE_EQ(t.transpose().maxAbsDiff(a), 0.0);
}

TEST(Matrix, RowColumnAccessors)
{
    Matrix a(2, 3);
    a.setRow(1, {4.0, 5.0, 6.0});
    EXPECT_EQ(a.row(1), (std::vector<double>{4.0, 5.0, 6.0}));
    EXPECT_EQ(a.column(2), (std::vector<double>{0.0, 6.0}));
}

TEST(MaskedMatrix, ObservationBookkeeping)
{
    MaskedMatrix m(3, 4);
    EXPECT_EQ(m.numObserved(), 0u);
    m.set(0, 1, 2.5);
    m.set(0, 1, 3.5); // overwrite, not double-count
    m.set(2, 3, 1.0);
    EXPECT_EQ(m.numObserved(), 2u);
    EXPECT_TRUE(m.observed(0, 1));
    EXPECT_FALSE(m.observed(1, 1));
    EXPECT_DOUBLE_EQ(m.value(0, 1), 3.5);
    EXPECT_EQ(m.observedInRow(0), 1u);
    EXPECT_NEAR(m.observedMean(), 2.25, 1e-12);
    m.clear(0, 1);
    EXPECT_EQ(m.numObserved(), 1u);
    EXPECT_DOUBLE_EQ(m.value(0, 1), 0.0);
}

TEST(MaskedMatrix, AppendRowPreservesData)
{
    MaskedMatrix m(2, 3);
    m.set(1, 2, 9.0);
    size_t r = m.appendRow();
    EXPECT_EQ(r, 2u);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_TRUE(m.observed(1, 2));
    EXPECT_DOUBLE_EQ(m.value(1, 2), 9.0);
    EXPECT_EQ(m.observedInRow(2), 0u);
}

TEST(Svd, ReconstructsExactly)
{
    Matrix a = lowRank(12, 8, 8, 2);
    SvdResult s = svd(a);
    EXPECT_LT(relErr(a, s.reconstruct()), 1e-8);
}

TEST(Svd, SingularValuesDescending)
{
    Matrix a = lowRank(10, 6, 6, 3);
    SvdResult s = svd(a);
    for (size_t i = 1; i < s.singular.size(); ++i)
        EXPECT_GE(s.singular[i - 1], s.singular[i]);
}

TEST(Svd, DetectsRank)
{
    Matrix a = lowRank(20, 10, 3, 4);
    SvdResult s = svd(a);
    EXPECT_EQ(s.effectiveRank(1e-8), 3u);
}

TEST(Svd, TruncatedKeepsDominantEnergy)
{
    Matrix a = lowRank(15, 10, 3, 5);
    SvdResult s = svd(a, 3);
    EXPECT_EQ(s.rank(), 3u);
    EXPECT_LT(relErr(a, s.reconstruct()), 1e-8);
}

TEST(Svd, WideMatrixHandled)
{
    Matrix a = lowRank(5, 20, 4, 6);
    SvdResult s = svd(a);
    EXPECT_LT(relErr(a, s.reconstruct()), 1e-8);
    EXPECT_EQ(s.u.rows(), 5u);
    EXPECT_EQ(s.v.rows(), 20u);
}

TEST(Svd, LeftVectorsOrthonormal)
{
    Matrix a = lowRank(12, 7, 7, 8);
    SvdResult s = svd(a);
    for (size_t i = 0; i < s.rank(); ++i) {
        for (size_t j = i; j < s.rank(); ++j) {
            double dot = 0.0;
            for (size_t r = 0; r < a.rows(); ++r)
                dot += s.u.at(r, i) * s.u.at(r, j);
            EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-7);
        }
    }
}

TEST(RandomizedSvd, ApproximatesLowRank)
{
    Matrix a = lowRank(60, 40, 5, 9);
    SvdResult s = randomizedSvd(a, 5, 3);
    EXPECT_LT(relErr(a, s.reconstruct()), 1e-6);
}

TEST(RandomizedSvd, NoisyMatrixCapturesStructure)
{
    Matrix a = lowRank(80, 50, 4, 10, 0.01);
    SvdResult s = randomizedSvd(a, 8, 3);
    EXPECT_LT(relErr(a, s.reconstruct()), 0.05);
}

TEST(RandomizedSvd, SeedsClassifierShapes)
{
    // Every PqModel fit seeds from randomizedSvd(centered, k, 2, seed),
    // down to a two-row history: on the classifier's matrix shapes the
    // rank-k error must stay close to the exact truncated SVD's.
    auto residual = [](const Matrix &a, const SvdResult &s) {
        Matrix r = s.reconstruct();
        for (size_t i = 0; i < a.rows(); ++i)
            for (size_t j = 0; j < a.cols(); ++j)
                r.at(i, j) = a.at(i, j) - r.at(i, j);
        return r.frobeniusNorm();
    };
    uint64_t seed = 70;
    for (auto [m, n] : {std::pair<size_t, size_t>{2, 16}, {3, 20},
                        {16, 14}, {120, 16}, {316, 14}, {303, 20}})
        for (size_t rank : {2, 4, 8, 12})
            for (double noise : {0.01, 0.1, 0.5}) {
                const Matrix a = lowRank(m, n, rank, ++seed, noise);
                const size_t k = std::min<size_t>({8, m, n});
                const SvdResult got = randomizedSvd(a, k, 2, 42);
                const SvdResult exact = svd(a, k);
                ASSERT_EQ(got.rank(), k);
                EXPECT_LE(residual(a, got),
                          1.25 * residual(a, exact) +
                              1e-12 * a.frobeniusNorm())
                    << m << "x" << n << " rank " << rank << " noise "
                    << noise;
                for (size_t f = 0; f < k; ++f) {
                    EXPECT_GE(got.singular[f], 0.0);
                    if (f > 0) {
                        EXPECT_LE(got.singular[f], got.singular[f - 1]);
                    }
                }
            }
}

TEST(PqModel, CompletesLowRankMatrix)
{
    // 30x20 rank-3, 40% observed: reconstruction must recover the
    // missing entries well.
    Matrix truth = lowRank(30, 20, 3, 11);
    MaskedMatrix obs(30, 20);
    quasar::stats::Rng rng(12);
    std::bernoulli_distribution keep(0.4);
    for (size_t i = 0; i < 30; ++i)
        for (size_t j = 0; j < 20; ++j)
            if (keep(rng.engine()))
                obs.set(i, j, truth.at(i, j));

    PqConfig cfg;
    cfg.rank = 6;
    cfg.max_epochs = 600;
    PqModel model(cfg);
    model.fit(obs);
    EXPECT_LT(model.trainRmse(), 0.15);

    double err = 0.0;
    size_t n = 0;
    for (size_t i = 0; i < 30; ++i)
        for (size_t j = 0; j < 20; ++j)
            if (!obs.observed(i, j)) {
                err += std::fabs(model.predict(i, j) - truth.at(i, j));
                ++n;
            }
    EXPECT_LT(err / double(n), 0.8); // values are O(1.7) on average
}

TEST(PqModel, EmptyMatrixSafe)
{
    MaskedMatrix obs(4, 4);
    PqModel model;
    model.fit(obs);
    EXPECT_EQ(model.epochsRun(), 0u);
    EXPECT_DOUBLE_EQ(model.predict(0, 0), 0.0);
}

TEST(PqModel, FoldInRecoversRow)
{
    // Dense history of a rank-2 structure; new row observed at 3 of
    // 15 columns must be predicted well everywhere.
    const size_t rows = 25, cols = 15, k = 2;
    Matrix truth = lowRank(rows + 1, cols, k, 21);
    MaskedMatrix hist(rows, cols);
    for (size_t i = 0; i < rows; ++i)
        for (size_t j = 0; j < cols; ++j)
            hist.set(i, j, truth.at(i, j));

    PqConfig cfg;
    cfg.rank = 4;
    cfg.max_epochs = 500;
    PqModel model(cfg);
    model.fit(hist);

    std::vector<std::pair<size_t, double>> observed = {
        {1, truth.at(rows, 1)},
        {7, truth.at(rows, 7)},
        {12, truth.at(rows, 12)},
    };
    std::vector<double> row = model.foldInRow(observed);
    ASSERT_EQ(row.size(), cols);
    // Observed entries exact.
    EXPECT_DOUBLE_EQ(row[7], truth.at(rows, 7));
    double err = 0.0;
    for (size_t j = 0; j < cols; ++j)
        err += std::fabs(row[j] - truth.at(rows, j));
    EXPECT_LT(err / double(cols), 0.6);
}

TEST(Completion, RowCompletionAgainstDenseHistory)
{
    Matrix truth = lowRank(21, 12, 2, 41);
    MaskedMatrix hist(20, 12);
    for (size_t i = 0; i < 20; ++i)
        for (size_t j = 0; j < 12; ++j)
            hist.set(i, j, truth.at(i, j));
    PqConfig cfg;
    cfg.rank = 4;
    cfg.max_epochs = 500;
    // Fit on the history, then fold the sparse new row in with the
    // column factors fixed.
    PqModel model(cfg);
    model.fit(hist);
    std::vector<double> row =
        model.foldInRow({{0, truth.at(20, 0)}, {5, truth.at(20, 5)}});
    double err = 0.0;
    for (size_t j = 0; j < 12; ++j)
        err += std::fabs(row[j] - truth.at(20, j));
    EXPECT_LT(err / 12.0, 1.2);
}

/** Density sweep: more observed entries must not hurt accuracy much. */
class CompletionDensity : public ::testing::TestWithParam<double>
{
};

TEST_P(CompletionDensity, ErrorShrinksWithDensity)
{
    double density = GetParam();
    Matrix truth = lowRank(40, 25, 3, 51);
    MaskedMatrix obs(40, 25);
    quasar::stats::Rng rng(52);
    std::bernoulli_distribution keep(density);
    for (size_t i = 0; i < 40; ++i)
        for (size_t j = 0; j < 25; ++j)
            if (keep(rng.engine()))
                obs.set(i, j, truth.at(i, j));
    PqConfig cfg;
    cfg.rank = 6;
    cfg.max_epochs = 400;
    PqModel model(cfg);
    model.fit(obs);
    Matrix full = model.reconstruct();
    double err = 0.0;
    size_t n = 0;
    for (size_t i = 0; i < 40; ++i)
        for (size_t j = 0; j < 25; ++j)
            if (!obs.observed(i, j)) {
                err += std::fabs(full.at(i, j) - truth.at(i, j));
                ++n;
            }
    double mean_err = n ? err / double(n) : 0.0;
    // Higher density -> tighter bound (values are O(1.7)).
    double bound = density >= 0.6 ? 0.35 : density >= 0.4 ? 0.6 : 1.2;
    EXPECT_LT(mean_err, bound) << "density " << density;
}

INSTANTIATE_TEST_SUITE_P(Densities, CompletionDensity,
                         ::testing::Values(0.25, 0.4, 0.6, 0.8));

// ------------------------------------------- fold-in and Jacobi checks
//
// foldInRow solves one joint ridge system for a row's bias and latent
// vector; it is checked against a normal-equation solve and an
// alternating (block Gauss-Seidel) solver built here independently.
// jacobiTall keeps W and V column-major and claims the same floating-
// point operations in the same order as the straightforward row-major
// version below, kept as a reference: results must match bit for bit.

namespace
{

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void
expectSameBits(const std::vector<double> &got,
               const std::vector<double> &want, const char *what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(sameBits(got[i], want[i]))
            << what << "[" << i << "]: " << got[i] << " vs " << want[i];
}

using Observed = std::vector<std::pair<size_t, double>>;

/** Lower Cholesky factor of an SPD matrix. */
std::vector<std::vector<double>>
cholesky(const std::vector<std::vector<double>> &a)
{
    const size_t n = a.size();
    std::vector<std::vector<double>> l(n, std::vector<double>(n, 0.0));
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j <= i; ++j) {
            double s = a[i][j];
            for (size_t t = 0; t < j; ++t)
                s -= l[i][t] * l[j][t];
            l[i][j] = i == j ? std::sqrt(s) : s / l[j][j];
        }
    return l;
}

/** Solve L L^T x = b. */
std::vector<double>
choleskySolve(const std::vector<std::vector<double>> &l,
              std::vector<double> b)
{
    const size_t n = b.size();
    for (size_t i = 0; i < n; ++i) {
        for (size_t t = 0; t < i; ++t)
            b[i] -= l[i][t] * b[t];
        b[i] /= l[i][i];
    }
    for (size_t i = n; i-- > 0;) {
        for (size_t t = i + 1; t < n; ++t)
            b[i] -= l[t][i] * b[t];
        b[i] /= l[i][i];
    }
    return b;
}

/** The full row a fold-in with bias b and latent vector q predicts. */
std::vector<double>
predictedRow(const PqModel &model, double b, const std::vector<double> &q,
             const Observed &observed)
{
    const Matrix &p = model.columnFactors();
    std::vector<double> row(p.rows());
    for (size_t c = 0; c < p.rows(); ++c) {
        double dot = 0.0;
        for (size_t f = 0; f < q.size(); ++f)
            dot += q[f] * p.at(c, f);
        row[c] = model.globalMean() + b + model.columnBias()[c] + dot;
    }
    for (const auto &[c, v] : observed)
        row[c] = v;
    return row;
}

/** Reference: least squares on the design matrix [1, p_c] stacked
 *  over the ridge rows, by Cholesky of its normal equations. */
std::vector<double>
normalEquationFoldIn(const PqModel &model, const Observed &observed)
{
    const Matrix &p = model.columnFactors();
    const size_t k = p.cols();
    const double n = double(observed.size());
    std::vector<std::vector<double>> design;
    std::vector<double> target;
    for (const auto &[c, v] : observed) {
        std::vector<double> x = {1.0};
        for (size_t f = 0; f < k; ++f)
            x.push_back(p.at(c, f));
        design.push_back(x);
        target.push_back(v - model.globalMean() - model.columnBias()[c]);
    }
    for (size_t j = 0; j <= k; ++j) {
        std::vector<double> x(k + 1, 0.0);
        x[j] = std::sqrt(j == 0 ? 1.0 : kFoldInRegularization * n);
        design.push_back(x);
        target.push_back(0.0);
    }
    std::vector<std::vector<double>> g(k + 1,
                                       std::vector<double>(k + 1, 0.0));
    std::vector<double> h(k + 1, 0.0);
    for (size_t o = 0; o < design.size(); ++o)
        for (size_t i = 0; i <= k; ++i) {
            h[i] += design[o][i] * target[o];
            for (size_t j = 0; j <= k; ++j)
                g[i][j] += design[o][i] * design[o][j];
        }
    std::vector<double> x = choleskySolve(cholesky(g), h);
    return predictedRow(model, x[0],
                        std::vector<double>(x.begin() + 1, x.end()),
                        observed);
}

/** Reference: alternate the bias and the ridge solve for the latent
 *  vector until neither moves (block Gauss-Seidel on the same system;
 *  on the shapes below it reaches a bitwise fixed point within ~150
 *  rounds or cycles in the last bits, which the cap ends). */
std::vector<double>
alternatingFoldIn(const PqModel &model, const Observed &observed)
{
    const Matrix &p = model.columnFactors();
    const size_t k = p.cols();
    const double n = double(observed.size());
    std::vector<std::vector<double>> ridge(k, std::vector<double>(k, 0.0));
    for (size_t f = 0; f < k; ++f)
        ridge[f][f] = kFoldInRegularization * n;
    for (const auto &[c, v] : observed)
        for (size_t f = 0; f < k; ++f)
            for (size_t g = 0; g < k; ++g)
                ridge[f][g] += p.at(c, f) * p.at(c, g);
    const std::vector<std::vector<double>> l = cholesky(ridge);
    double b = 0.0;
    std::vector<double> q(k, 0.0);
    for (int iter = 0; iter < 10000; ++iter) {
        double acc = 0.0;
        for (const auto &[c, v] : observed) {
            double dot = 0.0;
            for (size_t f = 0; f < k; ++f)
                dot += q[f] * p.at(c, f);
            acc += v - model.globalMean() - model.columnBias()[c] - dot;
        }
        const double next_b = acc / (n + 1.0);
        std::vector<double> rhs(k, 0.0);
        for (const auto &[c, v] : observed) {
            double y = v - model.globalMean() - next_b -
                       model.columnBias()[c];
            for (size_t f = 0; f < k; ++f)
                rhs[f] += p.at(c, f) * y;
        }
        std::vector<double> next_q = choleskySolve(l, rhs);
        const bool fixed = next_b == b && next_q == q;
        b = next_b;
        q = std::move(next_q);
        if (fixed)
            break;
    }
    return predictedRow(model, b, q, observed);
}

/** A classifier-shaped history: dense head rows, sparse tail. */
PqModel
fittedModel(size_t rows, size_t cols, uint64_t seed)
{
    quasar::stats::Rng rng(seed);
    MaskedMatrix m(rows, cols);
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c)
            if (r < 20 || rng.chance(0.08))
                m.set(r, c, rng.normal(1.0, 0.5));
    PqConfig cfg;
    cfg.max_epochs = 60;
    PqModel model(cfg);
    model.fit(m);
    return model;
}

/** 2-4 distinct observed columns with random values. */
std::vector<std::pair<size_t, double>>
randomObserved(size_t cols, quasar::stats::Rng &rng)
{
    size_t n = 2 + size_t(rng.uniform(0.0, 3.0));
    std::vector<size_t> perm = rng.permutation(cols);
    std::vector<std::pair<size_t, double>> obs;
    for (size_t i = 0; i < n && i < cols; ++i)
        obs.emplace_back(perm[i], rng.normal(1.0, 0.5));
    return obs;
}

/** Reference: one-sided Jacobi walking row-major W and V. */
SvdResult
referenceJacobiTall(const Matrix &a, size_t max_rank)
{
    const double tol = 1e-10;
    const size_t m = a.rows();
    const size_t n = a.cols();
    Matrix w = a;
    Matrix v(n, n);
    for (size_t i = 0; i < n; ++i)
        v.at(i, i) = 1.0;
    for (size_t sweep = 0; sweep < 60; ++sweep) {
        bool rotated = false;
        for (size_t p = 0; p + 1 < n; ++p) {
            for (size_t q = p + 1; q < n; ++q) {
                double alpha = 0.0, beta = 0.0, gamma = 0.0;
                for (size_t i = 0; i < m; ++i) {
                    double wp = w.at(i, p), wq = w.at(i, q);
                    alpha += wp * wp;
                    beta += wq * wq;
                    gamma += wp * wq;
                }
                if (std::fabs(gamma) <= tol * std::sqrt(alpha * beta) ||
                    gamma == 0.0)
                    continue;
                rotated = true;
                double zeta = (beta - alpha) / (2.0 * gamma);
                double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                           (std::fabs(zeta) +
                            std::sqrt(1.0 + zeta * zeta));
                double c = 1.0 / std::sqrt(1.0 + t * t);
                double s = c * t;
                for (size_t i = 0; i < m; ++i) {
                    double wp = w.at(i, p), wq = w.at(i, q);
                    w.at(i, p) = c * wp - s * wq;
                    w.at(i, q) = s * wp + c * wq;
                }
                for (size_t i = 0; i < n; ++i) {
                    double vp = v.at(i, p), vq = v.at(i, q);
                    v.at(i, p) = c * vp - s * vq;
                    v.at(i, q) = s * vp + c * vq;
                }
            }
        }
        if (!rotated)
            break;
    }
    std::vector<double> norms(n);
    for (size_t j = 0; j < n; ++j) {
        double s = 0.0;
        for (size_t i = 0; i < m; ++i)
            s += w.at(i, j) * w.at(i, j);
        norms[j] = std::sqrt(s);
    }
    std::vector<size_t> order(n);
    for (size_t j = 0; j < n; ++j)
        order[j] = j;
    std::sort(order.begin(), order.end(),
              [&](size_t x, size_t y) { return norms[x] > norms[y]; });
    size_t rank = (max_rank == 0) ? n : std::min(max_rank, n);
    SvdResult out;
    out.u = Matrix(m, rank);
    out.v = Matrix(n, rank);
    out.singular.resize(rank);
    for (size_t k = 0; k < rank; ++k) {
        size_t j = order[k];
        out.singular[k] = norms[j];
        double inv = (norms[j] > 0.0) ? 1.0 / norms[j] : 0.0;
        for (size_t i = 0; i < m; ++i)
            out.u.at(i, k) = w.at(i, j) * inv;
        for (size_t i = 0; i < n; ++i)
            out.v.at(i, k) = v.at(i, j);
    }
    return out;
}

/** Reference svd(): wide inputs go through the transpose. */
SvdResult
referenceSvd(const Matrix &a, size_t max_rank)
{
    if (a.rows() >= a.cols())
        return referenceJacobiTall(a, max_rank);
    SvdResult t = referenceJacobiTall(a.transpose(), max_rank);
    SvdResult out;
    out.u = std::move(t.v);
    out.v = std::move(t.u);
    out.singular = std::move(t.singular);
    return out;
}

void
expectSvdSameBits(const Matrix &a, size_t max_rank)
{
    SvdResult got = svd(a, max_rank);
    SvdResult want = referenceSvd(a, max_rank);
    ASSERT_EQ(got.u.rows(), want.u.rows());
    ASSERT_EQ(got.u.cols(), want.u.cols());
    ASSERT_EQ(got.v.rows(), want.v.rows());
    ASSERT_EQ(got.v.cols(), want.v.cols());
    expectSameBits(got.singular, want.singular, "singular");
    expectSameBits(got.u.data(), want.u.data(), "u");
    expectSameBits(got.v.data(), want.v.data(), "v");
}

} // namespace

TEST(FoldIn, SolvesTheJointRidgeSystem)
{
    quasar::stats::Rng rng(2718);
    for (auto [rows, cols] : {std::pair<size_t, size_t>{300, 16},
                              {300, 25}, {280, 54}, {40, 10}}) {
        PqModel model = fittedModel(rows, cols, rows * 131 + cols);
        ASSERT_EQ(model.columnFactors().cols(), 8u);
        for (int trial = 0; trial < 25; ++trial) {
            const Observed obs = randomObserved(cols, rng);
            const std::vector<double> got = model.foldInRow(obs);
            const std::vector<double> normal =
                normalEquationFoldIn(model, obs);
            const std::vector<double> alternating =
                alternatingFoldIn(model, obs);
            ASSERT_EQ(got.size(), cols);
            for (size_t c = 0; c < cols; ++c) {
                EXPECT_NEAR(got[c], normal[c], 1e-10)
                    << rows << "x" << cols << " trial " << trial;
                EXPECT_NEAR(got[c], alternating[c], 1e-9)
                    << rows << "x" << cols << " trial " << trial;
            }
        }
    }
}

TEST(FoldIn, NothingObservedPredictsMeanPlusColumnBias)
{
    PqModel model = fittedModel(60, 12, 5);
    std::vector<double> want(12);
    for (size_t c = 0; c < 12; ++c)
        want[c] = model.globalMean() + model.columnBias()[c];
    expectSameBits(model.foldInRow({}), want, "row");
}

TEST(FoldIn, ZeroFactorModel)
{
    // A model fit on nothing has all-zero factors and biases, so the
    // joint solve reduces to the bias alone: sum r / (n + 1).
    PqModel model;
    model.fit(MaskedMatrix(6, 6));
    for (double v : model.columnFactors().data())
        ASSERT_EQ(v, 0.0);
    const Observed obs = {{1, 0.7}, {4, 1.9}};
    double sum = 0.0;
    for (const auto &[c, v] : obs)
        sum += v - model.globalMean() - model.columnBias()[c];
    const double bias = sum / (double(obs.size()) + 1.0);
    std::vector<double> want(6);
    for (size_t c = 0; c < 6; ++c)
        want[c] = model.globalMean() + bias + model.columnBias()[c];
    for (const auto &[c, v] : obs)
        want[c] = v;
    expectSameBits(model.foldInRow(obs), want, "row");
}

TEST(JacobiReference, TallMatchesRowMajorBitwise)
{
    expectSvdSameBits(lowRank(30, 8, 8, 61, 0.1), 0);
    expectSvdSameBits(lowRank(300, 16, 8, 62, 0.05), 8);
}

TEST(JacobiReference, WideMatchesRowMajorBitwise)
{
    expectSvdSameBits(lowRank(6, 20, 6, 63, 0.1), 0);
    expectSvdSameBits(lowRank(25, 54, 8, 64, 0.05), 8);
}

TEST(JacobiReference, RankDeficientMatchesRowMajorBitwise)
{
    expectSvdSameBits(lowRank(40, 12, 3, 65), 0);
    expectSvdSameBits(lowRank(10, 30, 2, 66), 8);
}

TEST(JacobiReference, ZeroColumnMatchesRowMajorBitwise)
{
    Matrix a = lowRank(20, 7, 7, 67, 0.1);
    for (size_t i = 0; i < a.rows(); ++i)
        a.at(i, 3) = 0.0;
    expectSvdSameBits(a, 0);
    expectSvdSameBits(Matrix(5, 4), 0);
}

TEST(JacobiReference, OneByOneMatchesRowMajorBitwise)
{
    expectSvdSameBits(Matrix(1, 1, -2.5), 0);
    expectSvdSameBits(Matrix(1, 1, 0.0), 1);
}
