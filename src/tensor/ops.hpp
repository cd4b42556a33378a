// Dense kernels used by the nn:: layers and the parameter-averaging step of
// the decentralized-learning engine. All matrices are row-major.
//
// Naming: gemm_ab where a/b in {n, t} describe whether A/B is used as-is or
// transposed, matching the BLAS convention. Only the three combinations the
// backprop pass needs are provided.
#pragma once

#include <cstddef>
#include <span>

namespace skiptrain::tensor {

// ---------------------------------------------------------------------------
// Level-1: vector ops (the decentralized aggregation step is built on these)
// ---------------------------------------------------------------------------

/// y += alpha * x
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// x *= alpha
void scale(std::span<float> x, float alpha);

/// dst = alpha * src — the fused first step of a weighted row reduction
/// (one pass instead of copy-then-scale; bitwise identical result).
void scaled_copy(float alpha, std::span<const float> src,
                 std::span<float> dst);

/// y = (y + a1·x1) + a2·x2 — two axpy steps in one pass over y. The
/// parenthesisation matches two sequential axpy calls, so the result is
/// bitwise identical at half the write-back traffic.
void axpy2(float a1, std::span<const float> x1, float a2,
           std::span<const float> x2, std::span<float> y);

/// y = ((a0·x0) + a1·x1) + a2·x2 — weighted three-term row sum, bitwise
/// equal to scaled_copy followed by two axpys in one pass.
void weighted_sum3(float a0, std::span<const float> x0, float a1,
                   std::span<const float> x1, float a2,
                   std::span<const float> x2, std::span<float> y);

/// dst = src
void copy(std::span<const float> src, std::span<float> dst);

/// out = a - b
void subtract(std::span<const float> a, std::span<const float> b,
              std::span<float> out);

/// Dot product.
[[nodiscard]] double dot(std::span<const float> a, std::span<const float> b);

/// Squared L2 norm.
[[nodiscard]] double squared_norm(std::span<const float> x);

/// Euclidean distance between two parameter vectors.
[[nodiscard]] double l2_distance(std::span<const float> a,
                                 std::span<const float> b);

// ---------------------------------------------------------------------------
// Level-3: matrix multiplication
//
// Implemented as no-pack register-row kernels for gemm_nn / gemm_tn and a
// packed register-tile kernel for gemm_nt (tensor/gemm.cpp), all bitwise
// identical to the seed triple loops, which tensor/gemm.hpp retains as
// gemm_*_ref verification oracles. Each throws std::invalid_argument when
// a span is shorter than the operand its dimensions describe, in every
// build type.
// ---------------------------------------------------------------------------

/// C[m,n] = A[m,k] * B[k,n] + beta * C
void gemm_nn(std::size_t m, std::size_t k, std::size_t n,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c, float beta = 0.0f);

/// C[m,n] = A[m,k] * B[n,k]^T + beta * C  (B stored row-major as [n,k])
void gemm_nt(std::size_t m, std::size_t k, std::size_t n,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c, float beta = 0.0f);

/// C[m,n] = A[k,m]^T * B[k,n] + beta * C  (A stored row-major as [k,m])
void gemm_tn(std::size_t m, std::size_t k, std::size_t n,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c, float beta = 0.0f);

// ---------------------------------------------------------------------------
// NN-specific kernels
// ---------------------------------------------------------------------------

/// Row-wise in-place softmax over a [rows, cols] matrix (max-subtracted for
/// numerical stability).
void softmax_rows(std::size_t rows, std::size_t cols, std::span<float> x);

/// Index of the maximum element (first occurrence on ties).
[[nodiscard]] std::size_t argmax(std::span<const float> x);

}  // namespace skiptrain::tensor
