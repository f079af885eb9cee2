/**
 * @file
 * Singular value decomposition via one-sided Jacobi rotations.
 *
 * The classification engine (paper Sec. 3.2) applies SVD to the sparse
 * profiling matrix to extract similarity concepts, then seeds
 * PQ-reconstruction from U, Sigma, V. One-sided Jacobi is simple,
 * numerically robust, and fast enough at the matrix sizes Quasar uses
 * (hundreds of workloads x tens-to-hundreds of configurations).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hh"

namespace quasar::linalg
{

/** Result of a (possibly truncated) SVD: A ~= U * diag(s) * V^T. */
struct SvdResult
{
    Matrix u;                       ///< m x r left singular vectors.
    std::vector<double> singular;   ///< r singular values, descending.
    Matrix v;                       ///< n x r right singular vectors.

    size_t rank() const { return singular.size(); }

    /** Reconstruct U * diag(s) * V^T. */
    Matrix reconstruct() const;

    /**
     * Effective rank: number of singular values above
     * rel_tol * max singular value.
     */
    size_t effectiveRank(double rel_tol = 1e-9) const;
};

/**
 * Compute the SVD of a.
 *
 * @param a input matrix (any shape).
 * @param max_rank keep at most this many components (0 = all).
 * @param tol convergence threshold on column orthogonality.
 * @param max_sweeps Jacobi sweep limit.
 */
SvdResult svd(const Matrix &a, size_t max_rank = 0, double tol = 1e-10,
              size_t max_sweeps = 60);

/**
 * Randomized truncated SVD (Halko-Martinsson-Tropp): Gaussian sketch,
 * power iterations, then an exact SVD of the small projected matrix.
 * Costs O(m n k) instead of Jacobi's O(m n^2); seeds every
 * PQ-reconstruction fit, from two-row histories to the exhaustive
 * ablation's combinatorially wide matrices.
 */
SvdResult randomizedSvd(const Matrix &a, size_t rank,
                        size_t power_iters = 2, uint64_t seed = 7);

} // namespace quasar::linalg

