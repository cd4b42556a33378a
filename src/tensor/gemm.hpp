// GEMM kernel layer behind the gemm_nn/gemm_nt/gemm_tn entry points of
// tensor/ops.hpp.
//
// Bit-identity contract
// ---------------------
// The seed triple-loop kernels are retained verbatim below as
// `gemm_*_ref` and serve as verification oracles: for every input the
// fast kernels must produce bitwise identical C. They earn this by
// visiting each output element's k-dimension in exactly the seed's
// sequential order:
//
//   * gemm_nn / gemm_tn have two paths. Rows of at most 64 columns (every
//     GEMM the engines run) take a register-row kernel at any depth: beta
//     is applied once, then p ascends with the C row held in registers
//     over each 64-deep stretch of k and carried through C between
//     stretches (an exact store and reload), and the seed's
//     skip-zero-multiplier branch is preserved per (element-of-A, p).
//     Wider rows take the reference loops.
//   * gemm_nt keeps one register accumulator per output element across
//     the whole k extent (fresh dot, p ascending) and only then combines
//     with beta — the same op sequence as the reference inner loop. Its
//     packed 4x8 register tile zero-pads the edge slivers and stores only
//     the live lanes.
//
// Every accumulation is written in the same `acc += a * b` expression
// shape as the reference loops, so FP contraction (when a target enables
// FMA) applies to both sides identically. See gemm.cpp.
#pragma once

#include <cstddef>
#include <span>

namespace skiptrain::tensor {

// ---------------------------------------------------------------------------
// Reference kernels: the seed loops, kept for verification and as the
// fallback for the shapes outside the register-row and padded-tile paths.
// Signatures mirror tensor/ops.hpp.
// ---------------------------------------------------------------------------

/// C[m,n] = A[m,k] * B[k,n] + beta * C  (seed i-k-j loop)
void gemm_nn_ref(std::size_t m, std::size_t k, std::size_t n,
                 std::span<const float> a, std::span<const float> b,
                 std::span<float> c, float beta = 0.0f);

/// C[m,n] = A[m,k] * B[n,k]^T + beta * C  (seed dot loop)
void gemm_nt_ref(std::size_t m, std::size_t k, std::size_t n,
                 std::span<const float> a, std::span<const float> b,
                 std::span<float> c, float beta = 0.0f);

/// C[m,n] = A[k,m]^T * B[k,n] + beta * C  (seed outer-product loop)
void gemm_tn_ref(std::size_t m, std::size_t k, std::size_t n,
                 std::span<const float> a, std::span<const float> b,
                 std::span<float> c, float beta = 0.0f);

}  // namespace skiptrain::tensor
