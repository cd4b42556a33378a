// Tests for the deterministic RNG substrate — the reproducibility
// foundation of every simulation in this repo.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace skiptrain::util {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_int(17), 17u);
  }
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIntApproximatelyUniform) {
  Rng rng(9);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(8)];
  for (const int c : counts) {
    EXPECT_NEAR(c, n / 8, n / 8 * 0.1);
  }
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_range(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -2);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParams) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(21);
  std::vector<int> values(100);
  for (int i = 0; i < 100; ++i) values[i] = i;
  rng.shuffle(std::span<int>(values));
  std::vector<int> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Rng, ShuffleActuallyMoves) {
  Rng rng(22);
  std::vector<int> values(100);
  for (int i = 0; i < 100; ++i) values[i] = i;
  rng.shuffle(std::span<int>(values));
  int fixed_points = 0;
  for (int i = 0; i < 100; ++i) {
    if (values[i] == i) ++fixed_points;
  }
  EXPECT_LT(fixed_points, 15);  // expected ≈ 1 for a uniform permutation
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(31);
  const auto sample = rng.sample_without_replacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (const auto v : sample) EXPECT_LT(v, 50u);
}

TEST(Rng, SampleAllIsFullSet) {
  Rng rng(32);
  const auto sample = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, ForkIndependentStreams) {
  Rng base(99);
  Rng fork_a = base.fork(1);
  Rng fork_b = base.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (fork_a.next_u64() == fork_b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(99), b(99);
  Rng fa = a.fork(7), fb = b.fork(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(fa.next_u64(), fb.next_u64());
}

TEST(Rng, BernoulliRate) {
  Rng rng(41);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerate) {
  Rng rng(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, FillNormalAndUniform) {
  Rng rng(55);
  std::vector<float> buffer(10000);
  rng.fill_uniform(buffer, -1.0f, 1.0f);
  for (const float v : buffer) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LT(v, 1.0f);
  }
  rng.fill_normal(buffer, 2.0f, 0.5f);
  double sum = 0.0;
  for (const float v : buffer) sum += v;
  EXPECT_NEAR(sum / buffer.size(), 2.0, 0.05);
}

void expect_same_state(const Rng::State& a, const Rng::State& b) {
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(a.s[i], b.s[i]) << "s[" << i << "]";
  EXPECT_EQ(a.has_cached_normal, b.has_cached_normal);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cached_normal),
            std::bit_cast<std::uint64_t>(b.cached_normal));
}

TEST(Rng, DiscardNormalsMatchesDrawing) {
  // s[1] == 0 makes the next next_u64() return 0, so the next Box–Muller
  // pair draws u1 = 0 and its rejection loop runs.
  Rng::State zero_next;
  zero_next.s[0] = 0x9e3779b97f4a7c15ULL;
  zero_next.s[2] = 0x243f6a8885a308d3ULL;
  zero_next.s[3] = 0x13198a2e03707344ULL;
  Rng probe;
  probe.set_state(zero_next);
  ASSERT_EQ(probe.next_u64(), 0u);
  Rng::State zero_next_cached = zero_next;
  zero_next_cached.cached_normal = 0.25;
  zero_next_cached.has_cached_normal = true;

  Rng fresh(2024);
  Rng cached(2024);
  (void)cached.normal();
  ASSERT_TRUE(cached.state().has_cached_normal);
  const std::vector<std::pair<const char*, Rng::State>> starts = {
      {"empty cache", fresh.state()},
      {"full cache", cached.state()},
      {"u1 = 0 next, empty cache", zero_next},
      {"u1 = 0 next, full cache", zero_next_cached}};
  for (const auto& [name, start] : starts) {
    for (const std::uint64_t count : {0u, 1u, 2u, 63u, 64u, 65u}) {
      SCOPED_TRACE(std::string(name) + ", count " + std::to_string(count));
      Rng drawn;
      drawn.set_state(start);
      for (std::uint64_t i = 0; i < count; ++i) (void)drawn.normal();
      Rng skipped;
      skipped.set_state(start);
      skipped.discard_normals(count);
      expect_same_state(skipped.state(), drawn.state());
      for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(skipped.normal()),
                  std::bit_cast<std::uint64_t>(drawn.normal()));
      }
    }
  }
}

TEST(StatelessUniform, DeterministicAndOrderFree) {
  const double a = stateless_uniform(42, 3, 17);
  const double b = stateless_uniform(42, 3, 17);
  EXPECT_EQ(a, b);
  EXPECT_GE(a, 0.0);
  EXPECT_LT(a, 1.0);
  // Different coordinates give different draws.
  EXPECT_NE(stateless_uniform(42, 3, 17), stateless_uniform(42, 3, 18));
  EXPECT_NE(stateless_uniform(42, 3, 17), stateless_uniform(42, 4, 17));
  EXPECT_NE(stateless_uniform(42, 3, 17), stateless_uniform(43, 3, 17));
}

TEST(StatelessUniform, MarginalIsUniform) {
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += stateless_uniform(7, static_cast<std::uint64_t>(i), 0);
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(HashCombine, Distinguishes) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_NE(hash_combine(0, 0), hash_combine(0, 1));
  EXPECT_EQ(hash_combine(5, 9), hash_combine(5, 9));
}

}  // namespace
}  // namespace skiptrain::util
