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

// ------------------------------------------- bit-exact reference checks
//
// foldInRow factors its ridge matrix once and replays the elimination
// on each iteration's right-hand side, and jacobiTall keeps W and V
// column-major. Both claim the same floating-point operations in the
// same order as the straightforward versions below, which are kept
// here as references: results must match bit for bit.

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

/** Which elimination branches a reference solve took. */
struct SolveBranches
{
    size_t small_pivots = 0;
    size_t zero_multipliers = 0;
};

/** Reference: Gaussian elimination with partial pivoting, afresh. */
std::vector<double>
solveSmall(std::vector<std::vector<double>> a, std::vector<double> b,
           SolveBranches &branches)
{
    const size_t k = b.size();
    for (size_t i = 0; i < k; ++i) {
        size_t piv = i;
        for (size_t r = i + 1; r < k; ++r)
            if (std::fabs(a[r][i]) > std::fabs(a[piv][i]))
                piv = r;
        std::swap(a[i], a[piv]);
        std::swap(b[i], b[piv]);
        double d = a[i][i];
        if (std::fabs(d) < 1e-12) {
            ++branches.small_pivots;
            continue;
        }
        for (size_t r = i + 1; r < k; ++r) {
            double f = a[r][i] / d;
            if (f == 0.0) {
                ++branches.zero_multipliers;
                continue;
            }
            for (size_t c = i; c < k; ++c)
                a[r][c] -= f * a[i][c];
            b[r] -= f * b[i];
        }
    }
    std::vector<double> x(k, 0.0);
    for (size_t ii = k; ii-- > 0;) {
        double acc = b[ii];
        for (size_t c = ii + 1; c < k; ++c)
            acc -= a[ii][c] * x[c];
        x[ii] = std::fabs(a[ii][ii]) < 1e-12 ? 0.0 : acc / a[ii][ii];
    }
    return x;
}

/** Reference fold-in: rebuild and re-eliminate every iteration. */
std::vector<double>
referenceFoldIn(const PqModel &model,
                const std::vector<std::pair<size_t, double>> &observed,
                SolveBranches &branches)
{
    const Matrix &p = model.columnFactors();
    const std::vector<double> &col_bias = model.columnBias();
    const double mu = model.globalMean();
    const size_t k = p.cols();
    std::vector<double> qu(k, 0.0);
    double bu = 0.0;
    const double lambda = kFoldInRegularization;
    for (int iter = 0; iter < 20; ++iter) {
        double acc = 0.0;
        for (const auto &[c, v] : observed) {
            double dot = 0.0;
            for (size_t f = 0; f < k; ++f)
                dot += qu[f] * p.at(c, f);
            acc += v - mu - col_bias[c] - dot;
        }
        bu = acc / (double(observed.size()) + 1.0);
        std::vector<std::vector<double>> ata(
            k, std::vector<double>(k, 0.0));
        std::vector<double> atb(k, 0.0);
        for (size_t f = 0; f < k; ++f)
            ata[f][f] = lambda * double(observed.size());
        for (const auto &[c, v] : observed) {
            double y = v - mu - bu - col_bias[c];
            for (size_t f = 0; f < k; ++f) {
                double pf = p.at(c, f);
                atb[f] += pf * y;
                for (size_t g = 0; g < k; ++g)
                    ata[f][g] += pf * p.at(c, g);
            }
        }
        qu = solveSmall(std::move(ata), std::move(atb), branches);
    }
    std::vector<double> row(p.rows());
    for (size_t c = 0; c < p.rows(); ++c) {
        double dot = 0.0;
        for (size_t f = 0; f < k; ++f)
            dot += qu[f] * p.at(c, f);
        row[c] = mu + bu + col_bias[c] + dot;
    }
    for (const auto &[c, v] : observed)
        row[c] = v;
    return row;
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

TEST(FoldInReference, RandomObservedSetsMatchBitwise)
{
    quasar::stats::Rng rng(2718);
    for (auto [rows, cols] : {std::pair<size_t, size_t>{300, 16},
                              {300, 25}, {280, 54}, {40, 10}}) {
        PqModel model = fittedModel(rows, cols, rows * 131 + cols);
        ASSERT_EQ(model.columnFactors().cols(), 8u);
        for (int trial = 0; trial < 25; ++trial) {
            auto obs = randomObserved(cols, rng);
            SolveBranches branches;
            expectSameBits(model.foldInRow(obs),
                           referenceFoldIn(model, obs, branches),
                           "fold-in row");
        }
    }
}

TEST(FoldInReference, SmallPivotBranchMatchesBitwise)
{
    // Nothing observed: the ridge matrix is all zeros, so every
    // pivot is below 1e-12 and the solve returns the zero vector.
    PqModel model = fittedModel(60, 12, 5);
    SolveBranches branches;
    std::vector<std::pair<size_t, double>> none;
    expectSameBits(model.foldInRow(none),
                   referenceFoldIn(model, none, branches), "row");
    EXPECT_GT(branches.small_pivots, 0u);
}

TEST(FoldInReference, ZeroMultiplierBranchMatchesBitwise)
{
    // A model fit on nothing has all-zero factors, so the ridge
    // matrix is diagonal and every multiplier is exactly zero.
    PqModel model;
    model.fit(MaskedMatrix(6, 6));
    SolveBranches branches;
    std::vector<std::pair<size_t, double>> obs = {{1, 0.7}, {4, 1.9}};
    expectSameBits(model.foldInRow(obs),
                   referenceFoldIn(model, obs, branches), "row");
    EXPECT_GT(branches.zero_multipliers, 0u);
    EXPECT_EQ(branches.small_pivots, 0u);
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
