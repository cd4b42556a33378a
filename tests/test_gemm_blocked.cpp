// Bit-identity of the blocked and register-row GEMM kernels against the
// retained seed loops (gemm_*_ref). The contract is exact: for every
// input — including degenerate dims, non-square panels, every beta case,
// zero-heavy A (the skip-zero branch), and NaN-poisoned C with beta == 0
// — the fast kernels must produce bitwise identical C.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
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
/// blocked vs reference bitwise. `sparsify` zeroes a fraction of A to
/// exercise the skip-zero-multiplier branch.
void check_shape(std::size_t m, std::size_t k, std::size_t n,
                 std::uint64_t seed, bool sparsify) {
  util::Rng rng(seed);
  std::vector<float> a(m * k);  // same extent whichever layout reads it
  std::vector<float> b(k * n);
  if (!a.empty()) rng.fill_normal(a, 0.0f, 1.0f);
  if (!b.empty()) rng.fill_normal(b, 0.0f, 1.0f);
  if (sparsify) {
    for (std::size_t i = 0; i < a.size(); i += 3) a[i] = 0.0f;
  }
  std::vector<float> c_init(m * n);
  if (!c_init.empty()) rng.fill_normal(c_init, 0.0f, 1.0f);

  for (const float beta : {0.0f, 1.0f, 0.5f}) {
    {
      std::vector<float> c = c_init, ref = c_init;
      gemm_nn(m, k, n, a, b, c, beta);
      gemm_nn_ref(m, k, n, a, b, ref, beta);
      expect_bitwise_equal(c, ref, "gemm_nn", m, k, n, beta);
    }
    {
      std::vector<float> c = c_init, ref = c_init;
      gemm_nt(m, k, n, a, b, c, beta);
      gemm_nt_ref(m, k, n, a, b, ref, beta);
      expect_bitwise_equal(c, ref, "gemm_nt", m, k, n, beta);
    }
    {
      std::vector<float> c = c_init, ref = c_init;
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
    check_shape(m, k, n, 1000 + m * 31 + k * 7 + n, false);
  }
}

TEST(GemmBlocked, NonSquarePanelsCrossBlockBoundaries) {
  // Shapes straddling the microkernel tile (4x8) and the cache blocks
  // (kc/mc/nc from gemm_tuning), including off-by-one edges.
  const GemmTuning& tun = gemm_tuning();
  check_shape(3, 5, 17, 1, false);
  check_shape(4, 16, 16, 2, false);
  check_shape(5, 33, 31, 3, false);
  check_shape(64, 100, 48, 4, false);
  check_shape(70, tun.kc + 1, 40, 5, false);
  check_shape(tun.mc + 3, 65, 19, 6, false);
  check_shape(40, 120, tun.nc + 9, 7, false);
  check_shape(129, 257, 65, 8, false);
}

TEST(GemmBlocked, ZeroHeavyAPreservesSkipBranch) {
  check_shape(48, 96, 40, 11, true);
  check_shape(33, tensor::gemm_tuning().kc + 5, 37, 12, true);
}

TEST(GemmBlocked, LongAccumulationFuzz) {
  // Many k steps stress the cross-block accumulator carry: any deviation
  // from the seed's per-element op order shows up as a bit flip here.
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    util::Rng shape_rng(500 + trial);
    const auto m = static_cast<std::size_t>(1 + shape_rng.uniform_int(90));
    const auto k = static_cast<std::size_t>(1 + shape_rng.uniform_int(700));
    const auto n = static_cast<std::size_t>(1 + shape_rng.uniform_int(90));
    check_shape(m, k, n, 9000 + trial, trial % 2 == 1);
  }
}

TEST(GemmBlocked, BetaZeroNeverReadsCAnyVariantAnyPath) {
  // NaN-C regression for all three variants, on shapes that take the
  // blocked path AND shapes that take the reference fallback.
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

TEST(GemmTuning, DerivedBlocksAreSane) {
  const GemmTuning& tun = gemm_tuning();
  EXPECT_GE(tun.kc, 64u);
  EXPECT_LE(tun.kc, 512u);
  EXPECT_GE(tun.mc, 4u);
  EXPECT_LE(tun.mc, 1024u);
  EXPECT_EQ(tun.nc % 16, 0u);
  EXPECT_GT(tun.l1d_bytes, 0u);
  EXPECT_GT(tun.l2_bytes, tun.l1d_bytes);
}

}  // namespace
}  // namespace skiptrain::tensor
