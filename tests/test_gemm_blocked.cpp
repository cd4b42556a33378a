// Bit-identity of the register-row and padded-tile GEMM kernels against
// the retained seed loops (gemm_*_ref). The contract is exact: for every
// input — including degenerate dims, every beta case, depths on both
// sides of the row kernel's 64-deep compaction chunks, rows wider than 64
// (which take the reference), zero-heavy A (the skip-zero branch), and
// NaN-poisoned C with beta == 0 — the fast kernels must produce bitwise
// identical C.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace skiptrain::tensor {
namespace {

void expect_bitwise_equal(const std::vector<float>& got,
                          const std::vector<float>& want, const char* what,
                          std::size_t m, std::size_t k, std::size_t n,
                          float beta) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << " m=" << m << " k=" << k << " n=" << n << " beta=" << beta
        << " at " << i << ": " << got[i] << " vs " << want[i];
  }
}

/// Runs all three variants at (m, k, n) x beta in {0, 1, 0.5} and compares
/// the dispatched kernel against the reference bitwise; at beta 0, C is
/// NaN-poisoned. A random `zero_share` of A is zeroed to exercise the
/// skip-zero-multiplier branch.
void check_shape(std::size_t m, std::size_t k, std::size_t n,
                 std::uint64_t seed, double zero_share) {
  util::Rng rng(seed);
  std::vector<float> a(m * k);  // same extent whichever layout reads it
  std::vector<float> b(k * n);
  if (!a.empty()) rng.fill_normal(a, 0.0f, 1.0f);
  if (!b.empty()) rng.fill_normal(b, 0.0f, 1.0f);
  for (float& x : a) {
    if (rng.uniform() < zero_share) x = 0.0f;
  }
  std::vector<float> c_init(m * n);
  if (!c_init.empty()) rng.fill_normal(c_init, 0.0f, 1.0f);

  for (const float beta : {0.0f, 1.0f, 0.5f}) {
    std::vector<float> c0 = c_init;
    if (beta == 0.0f) {
      std::fill(c0.begin(), c0.end(), std::numeric_limits<float>::quiet_NaN());
    }
    {
      std::vector<float> c = c0, ref = c0;
      gemm_nn(m, k, n, a, b, c, beta);
      gemm_nn_ref(m, k, n, a, b, ref, beta);
      expect_bitwise_equal(c, ref, "gemm_nn", m, k, n, beta);
    }
    {
      std::vector<float> c = c0, ref = c0;
      gemm_nt(m, k, n, a, b, c, beta);
      gemm_nt_ref(m, k, n, a, b, ref, beta);
      expect_bitwise_equal(c, ref, "gemm_nt", m, k, n, beta);
    }
    {
      std::vector<float> c = c0, ref = c0;
      gemm_tn(m, k, n, a, b, c, beta);
      gemm_tn_ref(m, k, n, a, b, ref, beta);
      expect_bitwise_equal(c, ref, "gemm_tn", m, k, n, beta);
    }
  }
}

TEST(GemmBlocked, DegenerateAndUnitDims) {
  for (const auto& [m, k, n] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{0, 0, 0},
        {0, 5, 7},
        {5, 0, 7},
        {5, 7, 0},
        {1, 1, 1},
        {1, 257, 1},
        {1, 64, 300},
        {300, 64, 1},
        {257, 1, 33}}) {
    check_shape(m, k, n, 1000 + m * 31 + k * 7 + n, 0.0);
  }
}

TEST(GemmBlocked, NonSquareShapesCrossTileEdges) {
  // Shapes straddling the gemm_nt register tile (4x8), including
  // off-by-one edges.
  check_shape(3, 5, 17, 1, 0.0);
  check_shape(4, 16, 16, 2, 0.0);
  check_shape(5, 33, 31, 3, 0.0);
  check_shape(64, 100, 48, 4, 0.0);
  check_shape(70, 257, 40, 5, 0.0);
  check_shape(259, 65, 19, 6, 0.0);
  check_shape(40, 120, 265, 7, 0.0);
  check_shape(129, 257, 65, 8, 0.0);
}

TEST(GemmBlocked, RowKernelChunkBoundaries) {
  // The register-row kernel compacts nonzero multipliers 64 deep at a
  // time while the C row stays in registers: depths on both sides of one,
  // two and four chunks, at every row-width class (a lone tail lane, a
  // tail only, one full register, a register plus tail, and 48 and 64
  // wide, as the compact MLPs run).
  std::uint64_t seed = 2000;
  for (const std::size_t k : {63, 64, 65, 127, 128, 129, 257}) {
    for (const std::size_t n : {1, 7, 8, 10, 48, 64}) {
      check_shape(9, k, n, ++seed, 0.0);
    }
  }
}

TEST(GemmBlocked, RowsWiderThan64TakeTheReference) {
  check_shape(33, 70, 65, 21, 0.0);
  check_shape(16, 129, 800, 22, 0.34);
  check_shape(6, 100, 3136, 23, 0.0);
}

TEST(GemmBlocked, ZeroHeavyAPreservesSkipBranch) {
  check_shape(48, 96, 40, 11, 0.34);
  check_shape(33, 261, 37, 12, 0.34);
  // Past one chunk, with whole 64-deep stretches of zero multipliers.
  for (const double zero_share : {0.45, 0.9, 0.99, 1.0}) {
    check_shape(17, 200, 64, 13, zero_share);
    check_shape(17, 130, 10, 14, zero_share);
  }
}

TEST(GemmBlocked, LongAccumulationFuzz) {
  // Many k steps stress the accumulator carry: any deviation from the
  // seed's per-element op order shows up as a bit flip here.
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    util::Rng shape_rng(500 + trial);
    const auto m = static_cast<std::size_t>(1 + shape_rng.uniform_int(90));
    const auto k = static_cast<std::size_t>(1 + shape_rng.uniform_int(700));
    const auto n = static_cast<std::size_t>(1 + shape_rng.uniform_int(90));
    check_shape(m, k, n, 9000 + trial, trial % 2 == 1 ? 0.34 : 0.0);
  }
}

TEST(GemmBlocked, BetaZeroNeverReadsCAnyVariantAnyPath) {
  // NaN-C regression for all three variants, on shapes that take the
  // fast kernels AND shapes that take the reference fallback.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const auto& [m, k, n] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{3, 4, 2},
        {48, 128, 40}}) {
    util::Rng rng(m + k + n);
    std::vector<float> a(m * k), b(k * n);
    rng.fill_normal(a, 0.0f, 1.0f);
    rng.fill_normal(b, 0.0f, 1.0f);
    std::vector<float> c(m * n, nan);
    gemm_nn(m, k, n, a, b, c, 0.0f);
    for (const float v : c) ASSERT_FALSE(std::isnan(v)) << "gemm_nn";
    std::fill(c.begin(), c.end(), nan);
    gemm_nt(m, k, n, a, b, c, 0.0f);
    for (const float v : c) ASSERT_FALSE(std::isnan(v)) << "gemm_nt";
    std::fill(c.begin(), c.end(), nan);
    gemm_tn(m, k, n, a, b, c, 0.0f);
    for (const float v : c) ASSERT_FALSE(std::isnan(v)) << "gemm_tn";
    // The retained references share the write-only-C contract.
    std::fill(c.begin(), c.end(), nan);
    gemm_nn_ref(m, k, n, a, b, c, 0.0f);
    for (const float v : c) ASSERT_FALSE(std::isnan(v)) << "gemm_nn_ref";
    std::fill(c.begin(), c.end(), nan);
    gemm_nt_ref(m, k, n, a, b, c, 0.0f);
    for (const float v : c) ASSERT_FALSE(std::isnan(v)) << "gemm_nt_ref";
    std::fill(c.begin(), c.end(), nan);
    gemm_tn_ref(m, k, n, a, b, c, 0.0f);
    for (const float v : c) ASSERT_FALSE(std::isnan(v)) << "gemm_tn_ref";
  }
}

// Every GEMM of one SGD step of the compact MLPs the sweep presets train
// (64->32->10 CIFAR, 64->48->62 FEMNIST), at the paper batch (16) and
// the large_fleet batch (4). Each Linear(in -> out) at batch B runs
//   forward  gemm_nt(B, in, out)   x . W^T
//   dW       gemm_tn(out, B, in)   dY^T . x
//   dX       gemm_nn(B, out, in)   dY . W
// These take the register-row kernels; they must stay bitwise the
// reference for every zero share of the multiplier operand A (post-ReLU
// gradients are ~45% zeros), for beta 0 and 1, and must never read C at
// beta 0.
TEST(GemmSmall, CompactMlpShapesMatchReferenceBitwise) {
  struct LinearShape {
    std::size_t in, out;
  };
  const LinearShape layers[] = {{64, 32}, {32, 10}, {64, 48}, {48, 62}};
  const float nan = std::numeric_limits<float>::quiet_NaN();
  using Gemm = void (*)(std::size_t, std::size_t, std::size_t,
                        std::span<const float>, std::span<const float>,
                        std::span<float>, float);
  struct Variant {
    const char* name;
    Gemm fast, ref;
  };
  const Variant variants[] = {{"gemm_nt", gemm_nt, gemm_nt_ref},
                              {"gemm_tn", gemm_tn, gemm_tn_ref},
                              {"gemm_nn", gemm_nn, gemm_nn_ref}};
  std::uint64_t seed = 77;
  for (const std::size_t batch : {std::size_t{16}, std::size_t{4}}) {
    for (const LinearShape& layer : layers) {
      const std::tuple<std::size_t, std::size_t, std::size_t> dims[] = {
          {batch, layer.in, layer.out},
          {layer.out, batch, layer.in},
          {batch, layer.out, layer.in}};
      for (std::size_t v = 0; v < 3; ++v) {
        const auto [m, k, n] = dims[v];
        for (const double zero_share : {0.0, 0.45, 1.0}) {
          util::Rng rng(++seed);
          std::vector<float> a(m * k), b(k * n), c_init(m * n);
          rng.fill_normal(a, 0.0f, 1.0f);
          rng.fill_normal(b, 0.0f, 1.0f);
          rng.fill_normal(c_init, 0.0f, 1.0f);
          for (float& x : a) {
            if (rng.uniform() < zero_share) x = 0.0f;
          }
          for (const float beta : {0.0f, 1.0f}) {
            std::vector<float> c = c_init, ref = c_init;
            if (beta == 0.0f) std::fill(c.begin(), c.end(), nan);
            variants[v].fast(m, k, n, a, b, c, beta);
            variants[v].ref(m, k, n, a, b, ref, beta);
            SCOPED_TRACE(::testing::Message()
                         << "batch=" << batch << " zero_share=" << zero_share);
            expect_bitwise_equal(c, ref, variants[v].name, m, k, n, beta);
          }
        }
      }
    }
  }
}

/// gemm_nt against gemm_nt_ref at (m, k, n) for beta 0 (C NaN-poisoned),
/// 1 and 0.5, with C allocated past m x n: any padded lane of a partial
/// register tile that reached C would show as a changed guard value or
/// as a clobbered element of the next row. `plant` puts a NaN and an
/// Inf in the last A row and in the last B row, the live rows of the
/// edge tiles.
void check_nt_shape(std::size_t m, std::size_t k, std::size_t n,
                    std::uint64_t seed, bool plant) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  constexpr std::size_t kGuard = 64;
  constexpr float kGuardValue = -7.25f;
  util::Rng rng(seed);
  std::vector<float> a(m * k), b(n * k), c_init(m * n);
  rng.fill_normal(a, 0.0f, 1.0f);
  rng.fill_normal(b, 0.0f, 1.0f);
  rng.fill_normal(c_init, 0.0f, 1.0f);
  if (plant && k >= 2) {
    const std::size_t ra = m - 1, rb = n - 1;
    a[ra * k + 0] = nan;
    a[ra * k + k - 1] = inf;
    b[rb * k + k / 2] = nan;
    b[rb * k + k - 1] = -inf;
  }
  for (const float beta : {0.0f, 1.0f, 0.5f}) {
    std::vector<float> c(m * n + kGuard, kGuardValue);
    std::vector<float> ref(m * n + kGuard, kGuardValue);
    std::copy(c_init.begin(), c_init.end(), c.begin());
    std::copy(c_init.begin(), c_init.end(), ref.begin());
    if (beta == 0.0f) std::fill(c.begin(), c.begin() + m * n, nan);
    gemm_nt(m, k, n, a, b, c, beta);
    gemm_nt_ref(m, k, n, a, b, ref, beta);
    SCOPED_TRACE(::testing::Message() << "planted=" << plant);
    expect_bitwise_equal(c, ref, "gemm_nt", m, k, n, beta);
  }
}

// Every forward GEMM the compact MLPs run in evaluation and training:
// Linear(in -> out) at m rows is gemm_nt(m, in, out). The m grid covers
// fewer rows than one register tile (1, 3), one tile (4), the training
// batch (16), fleet_10k-sized and tail eval batches (64, 88) and the
// eval batch (256), plus 6 and 90 for a partial row tile; out = 10 and 62
// leave partial column tiles, and n from 1 to 9 sweeps every partial
// width.
TEST(GemmSmall, ForwardShapesWithPaddedEdgeTilesMatchReferenceBitwise) {
  struct LinearShape {
    std::size_t in, out;
  };
  const LinearShape layers[] = {{64, 32}, {32, 10}, {64, 48}, {48, 62}};
  const std::size_t rows[] = {1, 3, 4, 6, 16, 64, 88, 90, 256};
  std::uint64_t seed = 300;
  for (const std::size_t m : rows) {
    for (const LinearShape& layer : layers) {
      for (const bool plant : {false, true}) {
        check_nt_shape(m, layer.in, layer.out, ++seed, plant);
      }
    }
    for (std::size_t n = 1; n <= 9; ++n) {
      for (const bool plant : {false, true}) {
        check_nt_shape(m, 32, n, ++seed, plant);
      }
    }
  }
}

// The span-size checks are thrown errors, so they hold in Release builds
// too, where an assert would vanish.
TEST(GemmApi, ShortSpanThrowsInEveryBuild) {
  using Gemm = void (*)(std::size_t, std::size_t, std::size_t,
                        std::span<const float>, std::span<const float>,
                        std::span<float>, float);
  // m = 2, k = 3, n = 4: every layout needs 6 floats of A, 12 of B and 8
  // of C.
  std::vector<float> a(6, 1.0f), b(12, 1.0f), c(8, 0.0f);
  const std::span<const float> a_short(a.data(), 5);
  const std::span<const float> b_short(b.data(), 11);
  const std::span<float> c_short(c.data(), 7);
  for (const Gemm gemm : {Gemm{gemm_nn}, Gemm{gemm_nt}, Gemm{gemm_tn}}) {
    EXPECT_NO_THROW(gemm(2, 3, 4, a, b, c, 0.0f));
    EXPECT_THROW(gemm(2, 3, 4, a_short, b, c, 0.0f), std::invalid_argument);
    EXPECT_THROW(gemm(2, 3, 4, a, b_short, c, 0.0f), std::invalid_argument);
    EXPECT_THROW(gemm(2, 3, 4, a, b, c_short, 0.0f), std::invalid_argument);
  }
}

}  // namespace
}  // namespace skiptrain::tensor
