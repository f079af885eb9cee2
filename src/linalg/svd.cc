#include "linalg/svd.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <random>

#include "stats/rng.hh"

namespace quasar::linalg
{

Matrix
SvdResult::reconstruct() const
{
    Matrix out(u.rows(), v.rows());
    for (size_t i = 0; i < u.rows(); ++i)
        for (size_t j = 0; j < v.rows(); ++j) {
            double acc = 0.0;
            for (size_t k = 0; k < singular.size(); ++k)
                acc += u.at(i, k) * singular[k] * v.at(j, k);
            out.at(i, j) = acc;
        }
    return out;
}

size_t
SvdResult::effectiveRank(double rel_tol) const
{
    if (singular.empty())
        return 0;
    double cutoff = singular.front() * rel_tol;
    size_t r = 0;
    for (double s : singular)
        if (s > cutoff)
            ++r;
    return r;
}

namespace
{

/**
 * One-sided Jacobi on a tall m x n matrix (m >= n) given column-major
 * in w (its n columns of length m back to back): orthogonalize the
 * columns of W = A*V by plane rotations, accumulating V. W and V stay
 * column-major, so every rotation and norm walks contiguous memory.
 */
SvdResult
jacobiTall(std::vector<double> w, size_t m, size_t n, size_t max_rank,
           double tol, size_t max_sweeps)
{
    assert(m >= n && w.size() == m * n);

    std::vector<double> v(n * n, 0.0); // column-major
    for (size_t i = 0; i < n; ++i)
        v[i * n + i] = 1.0;

    for (size_t sweep = 0; sweep < max_sweeps; ++sweep) {
        bool rotated = false;
        for (size_t p = 0; p + 1 < n; ++p) {
            for (size_t q = p + 1; q < n; ++q) {
                double *wp = w.data() + p * m;
                double *wq = w.data() + q * m;
                double alpha = 0.0, beta = 0.0, gamma = 0.0;
                for (size_t i = 0; i < m; ++i) {
                    alpha += wp[i] * wp[i];
                    beta += wq[i] * wq[i];
                    gamma += wp[i] * wq[i];
                }
                if (std::fabs(gamma) <= tol * std::sqrt(alpha * beta) ||
                    gamma == 0.0) {
                    continue;
                }
                rotated = true;
                double zeta = (beta - alpha) / (2.0 * gamma);
                double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                           (std::fabs(zeta) +
                            std::sqrt(1.0 + zeta * zeta));
                double c = 1.0 / std::sqrt(1.0 + t * t);
                double s = c * t;
                for (size_t i = 0; i < m; ++i) {
                    double xp = wp[i], xq = wq[i];
                    wp[i] = c * xp - s * xq;
                    wq[i] = s * xp + c * xq;
                }
                double *vp = v.data() + p * n;
                double *vq = v.data() + q * n;
                for (size_t i = 0; i < n; ++i) {
                    double xp = vp[i], xq = vq[i];
                    vp[i] = c * xp - s * xq;
                    vq[i] = s * xp + c * xq;
                }
            }
        }
        if (!rotated)
            break;
    }

    // Singular values are column norms of W; sort descending.
    std::vector<double> norms(n);
    for (size_t j = 0; j < n; ++j) {
        const double *wj = w.data() + j * m;
        double s = 0.0;
        for (size_t i = 0; i < m; ++i)
            s += wj[i] * wj[i];
        norms[j] = std::sqrt(s);
    }
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(),
              [&](size_t x, size_t y) { return norms[x] > norms[y]; });

    size_t rank = (max_rank == 0) ? n : std::min(max_rank, n);

    SvdResult out;
    out.u = Matrix(m, rank);
    out.v = Matrix(n, rank);
    out.singular.resize(rank);
    for (size_t k = 0; k < rank; ++k) {
        size_t j = order[k];
        double s = norms[j];
        out.singular[k] = s;
        double inv = (s > 0.0) ? 1.0 / s : 0.0;
        for (size_t i = 0; i < m; ++i)
            out.u.at(i, k) = w[j * m + i] * inv;
        for (size_t i = 0; i < n; ++i)
            out.v.at(i, k) = v[j * n + i];
    }
    return out;
}

} // namespace

namespace
{

/** Orthonormalize the columns of y in place (modified Gram-Schmidt). */
void
orthonormalize(Matrix &y)
{
    for (size_t j = 0; j < y.cols(); ++j) {
        for (size_t k = 0; k < j; ++k) {
            double dot = 0.0;
            for (size_t i = 0; i < y.rows(); ++i)
                dot += y.at(i, j) * y.at(i, k);
            for (size_t i = 0; i < y.rows(); ++i)
                y.at(i, j) -= dot * y.at(i, k);
        }
        double norm = 0.0;
        for (size_t i = 0; i < y.rows(); ++i)
            norm += y.at(i, j) * y.at(i, j);
        norm = std::sqrt(norm);
        if (norm > 1e-12) {
            for (size_t i = 0; i < y.rows(); ++i)
                y.at(i, j) /= norm;
        }
    }
}

} // namespace

SvdResult
randomizedSvd(const Matrix &a, size_t rank, size_t power_iters,
              uint64_t seed)
{
    const size_t m = a.rows();
    const size_t n = a.cols();
    const size_t k = std::min({rank, m, n});
    assert(k > 0);

    // Gaussian sketch omega (n x k), y = a * omega.
    stats::Rng rng(seed);
    std::normal_distribution<double> gauss(0.0, 1.0);
    Matrix omega(n, k);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < k; ++j)
            omega.at(i, j) = gauss(rng.engine());

    Matrix y = a.multiply(omega);
    orthonormalize(y);
    Matrix at = a.transpose();
    for (size_t it = 0; it < power_iters; ++it) {
        Matrix z = at.multiply(y);
        orthonormalize(z);
        y = a.multiply(z);
        orthonormalize(y);
    }

    // b = y^T a  (k x n); exact SVD of the small matrix.
    Matrix b = y.transpose().multiply(a);
    SvdResult small = svd(b, k);

    SvdResult out;
    out.u = y.multiply(small.u); // m x k
    out.singular = std::move(small.singular);
    out.v = std::move(small.v);
    return out;
}

SvdResult
svd(const Matrix &a, size_t max_rank, double tol, size_t max_sweeps)
{
    const size_t m = a.rows();
    const size_t n = a.cols();
    if (m >= n) {
        std::vector<double> w(m * n);
        for (size_t i = 0; i < m; ++i)
            for (size_t j = 0; j < n; ++j)
                w[j * m + i] = a.at(i, j);
        return jacobiTall(std::move(w), m, n, max_rank, tol, max_sweeps);
    }

    // Wide matrix: decompose the transpose and swap U <-> V. A's
    // row-major storage is exactly A^T column-major.
    SvdResult t = jacobiTall(a.data(), n, m, max_rank, tol, max_sweeps);
    SvdResult out;
    out.u = std::move(t.v);
    out.v = std::move(t.u);
    out.singular = std::move(t.singular);
    return out;
}

} // namespace quasar::linalg
