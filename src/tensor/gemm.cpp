// GEMM kernels (see gemm.hpp for the bit-identity contract). The public
// gemm_nn/gemm_nt/gemm_tn entry points of tensor/ops.hpp dispatch between
// kernel families that are all bitwise identical to the seed reference
// loops, so every dispatch threshold is a pure performance knob:
//
//   * gemm_nn / gemm_tn: register-row kernels for every row of at most
//     kRowMax columns, at any depth k (every engine GEMM has n <= 64);
//     the seed reference loops for wider rows;
//   * gemm_nt: a packed register-tile kernel whose edge tiles are
//     zero-padded, so the 10-wide and 62-wide classifier heads run the
//     full tile; the reference loop below one tile of rows (m < kMR) or
//     past 64 Ki of depth.
//
// ISA clones: the three entry points are compiled once per target in
// SKIPTRAIN_GEMM_CLONES and picked at load time. Every kernel they call
// is always_inline, so each clone carries its own copy of the kernels.
// The kernels are per-element `acc += a * b` chains with no
// reassociation, and this TU is built with -ffp-contract=off (see
// CMakeLists.txt), so the wider clone changes lane width only, never a
// bit of C. fma is deliberately absent from the clone list.
#include "tensor/gemm.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "obs/registry.hpp"
#include "tensor/ops.hpp"
#include "util/arena.hpp"

// Same guard as the quant codec kernels: GCC on x86-64 ELF emits the
// IFUNC dispatch; ASan builds and other toolchains get the single
// baseline build of the same source.
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_ADDRESS__)
#define SKIPTRAIN_GEMM_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define SKIPTRAIN_GEMM_CLONES
#endif

namespace skiptrain::tensor {

// ---------------------------------------------------------------------------
// Reference kernels — the seed loops, verbatim.
// ---------------------------------------------------------------------------

void gemm_nn_ref(std::size_t m, std::size_t k, std::size_t n,
                 std::span<const float> a, std::span<const float> b,
                 std::span<float> c, float beta) {
  assert(a.size() >= m * k && b.size() >= k * n && c.size() >= m * n);
  // i-k-j loop order: the inner loop streams both B's row and C's row,
  // which vectorises well and is cache-friendly for row-major storage.
  for (std::size_t i = 0; i < m; ++i) {
    float* __restrict__ ci = c.data() + i * n;
    if (beta == 0.0f) {
      std::fill(ci, ci + n, 0.0f);
    } else if (beta != 1.0f) {
      for (std::size_t j = 0; j < n; ++j) ci[j] *= beta;
    }
    const float* __restrict__ ai = a.data() + i * k;
    for (std::size_t p = 0; p < k; ++p) {
      const float aip = ai[p];
      if (aip == 0.0f) continue;
      const float* __restrict__ bp = b.data() + p * n;
      for (std::size_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
    }
  }
}

void gemm_nt_ref(std::size_t m, std::size_t k, std::size_t n,
                 std::span<const float> a, std::span<const float> b,
                 std::span<float> c, float beta) {
  assert(a.size() >= m * k && b.size() >= n * k && c.size() >= m * n);
  // C[i,j] = <A_row_i, B_row_j>: both operands stream contiguously.
  // BLAS semantics: C must not be read when beta == 0 — it may be
  // uninitialized or NaN-poisoned, and NaN * 0 is NaN, so the scale-by-beta
  // form is hoisted into an explicit branch.
  for (std::size_t i = 0; i < m; ++i) {
    const float* __restrict__ ai = a.data() + i * k;
    float* __restrict__ ci = c.data() + i * n;
    if (beta == 0.0f) {
      for (std::size_t j = 0; j < n; ++j) {
        const float* __restrict__ bj = b.data() + j * k;
        float acc = 0.0f;
        for (std::size_t p = 0; p < k; ++p) acc += ai[p] * bj[p];
        ci[j] = acc;
      }
    } else {
      for (std::size_t j = 0; j < n; ++j) {
        const float* __restrict__ bj = b.data() + j * k;
        float acc = 0.0f;
        for (std::size_t p = 0; p < k; ++p) acc += ai[p] * bj[p];
        ci[j] = beta * ci[j] + acc;
      }
    }
  }
}

void gemm_tn_ref(std::size_t m, std::size_t k, std::size_t n,
                 std::span<const float> a, std::span<const float> b,
                 std::span<float> c, float beta) {
  assert(a.size() >= k * m && b.size() >= k * n && c.size() >= m * n);
  if (beta == 0.0f) {
    std::fill(c.begin(), c.begin() + static_cast<std::ptrdiff_t>(m * n), 0.0f);
  } else if (beta != 1.0f) {
    for (std::size_t i = 0; i < m * n; ++i) c[i] *= beta;
  }
  // C[i,j] += A[p,i] * B[p,j]: accumulate outer products row-by-row of the
  // shared dimension; inner loop is contiguous over B and C.
  for (std::size_t p = 0; p < k; ++p) {
    const float* __restrict__ ap = a.data() + p * m;
    const float* __restrict__ bp = b.data() + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float api = ap[i];
      if (api == 0.0f) continue;
      float* __restrict__ ci = c.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) ci[j] += api * bp[j];
    }
  }
}

// ---------------------------------------------------------------------------
// gemm_nt: packed register tiles
// ---------------------------------------------------------------------------

namespace {

// Register tile sized for the baseline x86-64 (SSE2) target the repo
// builds for: 4x8 accumulators = 8 vector registers, leaving half the
// register file for panel loads and broadcasts.
constexpr std::size_t kMR = 4;  // microkernel register-tile rows
constexpr std::size_t kNR = 8;  // microkernel register-tile columns

/// Grow-only scratch for the packed gemm_nt slivers, backed by
/// util::AlignedArena (64-byte aligned, huge-page-advised past 2 MiB; per
/// thread — the engines run GEMMs from pool workers, never nested).
struct PackScratch {
  util::AlignedArena a;  // packed A sliver
  util::AlignedArena b;  // packed, transposed B panel
};

thread_local PackScratch t_scratch;

/// Register tile for gemm_nt: fresh dot accumulators over the whole k
/// extent (p ascending — the reference op sequence). No zero skip: the
/// reference dot loop has none. Both slivers are zero-padded to the full
/// tile, so every tile runs all kMR x kNR lanes; each lane is its own
/// accumulator, so the padding never touches a live one.
[[gnu::always_inline]] inline void micro_nt(
    std::size_t k, const float* __restrict__ ap, const float* __restrict__ bp,
    float (&acc)[kMR][kNR]) {
  for (std::size_t r = 0; r < kMR; ++r) {
    for (std::size_t j = 0; j < kNR; ++j) acc[r][j] = 0.0f;
  }
  for (std::size_t p = 0; p < k; ++p) {
    const float* __restrict__ arow = ap + p * kMR;
    const float* __restrict__ brow = bp + p * kNR;
    for (std::size_t r = 0; r < kMR; ++r) {
      const float av = arow[r];
      for (std::size_t j = 0; j < kNR; ++j) acc[r][j] += av * brow[j];
    }
  }
}

/// Stores the live mr x nr lanes of a gemm_nt tile, combining with beta
/// last, as the reference does.
template <bool kFull>
[[gnu::always_inline]] inline void store_nt_tile(
    const float (&acc)[kMR][kNR], std::size_t mr, std::size_t nr,
    float* __restrict__ c, std::size_t ldc, float beta) {
  const std::size_t rows = kFull ? kMR : mr;
  const std::size_t cols = kFull ? kNR : nr;
  if (beta == 0.0f) {
    // Write-only C: never read (it may be uninitialized or NaN-poisoned).
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < cols; ++j) c[r * ldc + j] = acc[r][j];
    }
    return;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < cols; ++j) {
      c[r * ldc + j] = beta * c[r * ldc + j] + acc[r][j];
    }
  }
}

[[gnu::always_inline]] inline void gemm_nt_blocked(
    std::size_t m, std::size_t k, std::size_t n, std::span<const float> a,
    std::span<const float> b, std::span<float> c, float beta) {
  // The dot accumulators must span the whole k extent (the reference keeps
  // one register accumulator per element), so k is not blocked; instead
  // both operands are repacked per panel — B transposed into kNR slivers,
  // the current kMR rows of A interleaved — with the B panel width chosen
  // so the pack stays a few MB at most. Edge slivers are zero-padded to
  // the full tile.
  const std::size_t panel_target = (2u << 20) / sizeof(float);
  std::size_t nc_max =
      std::max<std::size_t>(panel_target / std::max<std::size_t>(k, 1), kNR);
  nc_max = std::min<std::size_t>(nc_max & ~(kNR - 1), 256);
  float* bt = t_scratch.b.ensure_floats(k * (nc_max + kNR));
  float* ap = t_scratch.a.ensure_floats(k * kMR);
  for (std::size_t jc = 0; jc < n; jc += nc_max) {
    const std::size_t nc = std::min(nc_max, n - jc);
    // B transpose pack: sliver s row p holds B[jc+s*kNR .. +w][p], then
    // kNR - w zero lanes.
    for (std::size_t j0 = 0; j0 < nc; j0 += kNR) {
      const std::size_t w = std::min(kNR, nc - j0);
      float* __restrict__ out = bt + (j0 / kNR) * k * kNR;
      for (std::size_t jj = 0; jj < w; ++jj) {
        const float* __restrict__ brow = b.data() + (jc + j0 + jj) * k;
        float* __restrict__ o = out + jj;
        for (std::size_t p = 0; p < k; ++p) o[p * kNR] = brow[p];
      }
      for (std::size_t jj = w; jj < kNR; ++jj) {
        for (std::size_t p = 0; p < k; ++p) out[p * kNR + jj] = 0.0f;
      }
    }
    for (std::size_t i0 = 0; i0 < m; i0 += kMR) {
      const std::size_t mr = std::min(kMR, m - i0);
      // A transpose pack for this row sliver: arow p = A[i0..i0+mr][p],
      // then kMR - mr zero rows.
      for (std::size_t r = 0; r < kMR; ++r) {
        float* __restrict__ o = ap + r;
        if (r < mr) {
          const float* __restrict__ src = a.data() + (i0 + r) * k;
          for (std::size_t p = 0; p < k; ++p) o[p * kMR] = src[p];
        } else {
          for (std::size_t p = 0; p < k; ++p) o[p * kMR] = 0.0f;
        }
      }
      float* crow = c.data() + i0 * n + jc;
      for (std::size_t j0 = 0; j0 < nc; j0 += kNR) {
        const std::size_t nr = std::min(kNR, nc - j0);
        float acc[kMR][kNR];
        micro_nt(k, ap, bt + (j0 / kNR) * k * kNR, acc);
        if (mr == kMR && nr == kNR) {
          store_nt_tile<true>(acc, kMR, kNR, crow + j0, n, beta);
        } else {
          store_nt_tile<false>(acc, mr, nr, crow + j0, n, beta);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// gemm_nn / gemm_tn: register-row kernels
//
// No packing: the i loop is outermost and one C row lives in locals across
// a kChunk-deep stretch of k — the first kNV * kLanes columns in a
// fixed-size array the compiler keeps in vector registers (eight AVX2
// registers at n = 64), the n % kLanes tail columns in a small array
// beside it. Each element sees exactly the reference's op sequence: beta
// first, then p ascending, skipping every p whose multiplier is zero.
// gemm_nt has no row kernel: its reference is a dot product per element,
// so a row kernel would first have to transpose B, and measured end to
// end that gains nothing.
// ---------------------------------------------------------------------------

/// Widest row the register-row kernels take.
constexpr std::size_t kRowMax = 64;
/// Depth of k whose nonzero multipliers are compacted at a time.
constexpr std::size_t kChunk = 64;
/// Columns per vector register on the widest clone (AVX2: 8 floats).
constexpr std::size_t kLanes = 8;

// Full unrolling of the fixed-width column loops is what lets the row
// accumulators live in registers rather than on the stack.
#if defined(__clang__)
#define SKIPTRAIN_UNROLL_ROW _Pragma("unroll")
#else
#define SKIPTRAIN_UNROLL_ROW _Pragma("GCC unroll 64")
#endif

/// gemm_nn / gemm_tn for n in [kNV * kLanes, kNV * kLanes + kLanes) and
/// k <= kChunk: multiplier A(i, p) = a[i * a_row + p * a_step] (nn:
/// a_row = k, a_step = 1; tn: a_row = 1, a_step = m), B row p at
/// b + p * n. Beta is applied first, then p ascends with `acc += a * b`.
/// A zero multiplier skips its B row entirely: the nonzero multipliers of
/// a row are compacted up front, so the work shrinks with post-ReLU
/// sparsity and no branch is mispredicted per p.
template <std::size_t kNV>
[[gnu::always_inline]] inline void gemm_row_chunk(
    std::size_t m, std::size_t k, std::size_t n, const float* __restrict__ a,
    std::size_t a_row, std::size_t a_step, const float* __restrict__ b,
    float* __restrict__ c, float beta) {
  constexpr std::size_t kW = kNV * kLanes;
  const std::size_t tail = n - kW;
  const float* brows[kChunk];
  float mults[kChunk];
  for (std::size_t i = 0; i < m; ++i) {
    float* __restrict__ ci = c + i * n;
    float acc[kW > 0 ? kW : 1];
    float acc_tail[kLanes];
    if (beta == 0.0f) {
      SKIPTRAIN_UNROLL_ROW
      for (std::size_t j = 0; j < kW; ++j) acc[j] = 0.0f;
      for (std::size_t j = 0; j < tail; ++j) acc_tail[j] = 0.0f;
    } else if (beta == 1.0f) {
      SKIPTRAIN_UNROLL_ROW
      for (std::size_t j = 0; j < kW; ++j) acc[j] = ci[j];
      for (std::size_t j = 0; j < tail; ++j) acc_tail[j] = ci[kW + j];
    } else {
      SKIPTRAIN_UNROLL_ROW
      for (std::size_t j = 0; j < kW; ++j) acc[j] = ci[j] * beta;
      for (std::size_t j = 0; j < tail; ++j) acc_tail[j] = ci[kW + j] * beta;
    }
    const float* __restrict__ ai = a + i * a_row;
    std::size_t count = 0;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = ai[p * a_step];
      brows[count] = b + p * n;
      mults[count] = av;
      count += av != 0.0f ? 1 : 0;
    }
    for (std::size_t q = 0; q < count; ++q) {
      const float av = mults[q];
      const float* __restrict__ bp = brows[q];
      SKIPTRAIN_UNROLL_ROW
      for (std::size_t j = 0; j < kW; ++j) acc[j] += av * bp[j];
      for (std::size_t j = 0; j < tail; ++j) acc_tail[j] += av * bp[kW + j];
    }
    SKIPTRAIN_UNROLL_ROW
    for (std::size_t j = 0; j < kW; ++j) ci[j] = acc[j];
    for (std::size_t j = 0; j < tail; ++j) ci[kW + j] = acc_tail[j];
  }
}

/// gemm_nn / gemm_tn at any depth: the rows run over one kChunk-deep
/// stretch of k at a time, the first stretch applying beta and each later
/// one continuing from C with beta 1. Storing and reloading a float is
/// exact, so every element still sees beta first, then p ascending under
/// the skip-zero rule. The single stretch of k <= kChunk (every compact-MLP
/// GEMM at batch <= 64, k == 0 included) gets a call of its own: folded
/// into the loop, or with the C row kept in registers across stretches,
/// those shapes measured 5-40% slower.
template <std::size_t kNV>
[[gnu::always_inline]] inline void gemm_row_kernel(
    std::size_t m, std::size_t k, std::size_t n, const float* a,
    std::size_t a_row, std::size_t a_step, const float* b, float* c,
    float beta) {
  if (k <= kChunk) {
    gemm_row_chunk<kNV>(m, k, n, a, a_row, a_step, b, c, beta);
    return;
  }
  for (std::size_t p0 = 0; p0 < k; p0 += kChunk) {
    gemm_row_chunk<kNV>(m, std::min(kChunk, k - p0), n, a + p0 * a_step,
                        a_row, a_step, b + p0 * n, c,
                        p0 == 0 ? beta : 1.0f);
  }
}

/// Runs the gemm_row_kernel instance whose register width covers n
/// (kNV = n / kLanes, found by compile-time recursion).
template <std::size_t kNV = 0>
[[gnu::always_inline]] inline void gemm_rows(
    std::size_t m, std::size_t k, std::size_t n, const float* a,
    std::size_t a_row, std::size_t a_step, const float* b, float* c,
    float beta) {
  if constexpr (kNV < kRowMax / kLanes) {
    if (n / kLanes != kNV) {
      gemm_rows<kNV + 1>(m, k, n, a, a_row, a_step, b, c, beta);
      return;
    }
  }
  gemm_row_kernel<kNV>(m, k, n, a, a_row, a_step, b, c, beta);
}

// ---------------------------------------------------------------------------
// Public entry points (declared in tensor/ops.hpp)
// ---------------------------------------------------------------------------

/// Telemetry tap at the dispatch layer: call and MAC volume, not timing —
/// per-call spans would dwarf the work at training's small shapes.
void note_gemm(std::size_t m, std::size_t k, std::size_t n) {
  static const obs::Counter calls = obs::counter("gemm.calls");
  static const obs::Counter macs = obs::counter("gemm.macs");
  calls.add(1);
  macs.add(static_cast<std::uint64_t>(m) * k * n);
}

/// The span-size check at the API edge: one comparison per call, kept in
/// every build type (an assert would vanish in Release).
void require_spans(bool fits, const char* what) {
  if (!fits) {
    throw std::invalid_argument(std::string(what) +
                                ": a span is shorter than its operand");
  }
}

}  // namespace

SKIPTRAIN_GEMM_CLONES
void gemm_nn(std::size_t m, std::size_t k, std::size_t n,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c, float beta) {
  require_spans(a.size() >= m * k && b.size() >= k * n && c.size() >= m * n,
                "gemm_nn");
  note_gemm(m, k, n);
  // k == 0 must still apply beta to C — both paths handle it.
  if (n <= kRowMax) {
    gemm_rows(m, k, n, a.data(), k, 1, b.data(), c.data(), beta);
    return;
  }
  gemm_nn_ref(m, k, n, a, b, c, beta);
}

SKIPTRAIN_GEMM_CLONES
void gemm_nt(std::size_t m, std::size_t k, std::size_t n,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c, float beta) {
  require_spans(a.size() >= m * k && b.size() >= n * k && c.size() >= m * n,
                "gemm_nt");
  note_gemm(m, k, n);
  // Fewer rows than one tile cannot amortize the B pack, and past 64 Ki
  // of depth the packed panel would outgrow its few-MB budget.
  if (m < kMR || k > 65536) {
    gemm_nt_ref(m, k, n, a, b, c, beta);
    return;
  }
  gemm_nt_blocked(m, k, n, a, b, c, beta);
}

SKIPTRAIN_GEMM_CLONES
void gemm_tn(std::size_t m, std::size_t k, std::size_t n,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c, float beta) {
  require_spans(a.size() >= k * m && b.size() >= k * n && c.size() >= m * n,
                "gemm_tn");
  note_gemm(m, k, n);
  if (n <= kRowMax) {
    gemm_rows(m, k, n, a.data(), 1, m, b.data(), c.data(), beta);
    return;
  }
  gemm_tn_ref(m, k, n, a, b, c, beta);
}

}  // namespace skiptrain::tensor
