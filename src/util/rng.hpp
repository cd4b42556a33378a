// Deterministic random number generation for the SkipTrain simulator.
//
// Reproducibility contract: every stochastic decision in the system draws
// from an Rng that is derived *functionally* from (master seed, purpose,
// node id, round) rather than from shared mutable state. This makes every
// experiment bitwise reproducible regardless of the number of worker
// threads executing the simulation.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace skiptrain::util {

/// SplitMix64: used to expand a 64-bit seed into well-distributed state.
/// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
/// generators" (OOPSLA'14). Passes BigCrush when used as a generator.
struct SplitMix64 {
  std::uint64_t state;

  explicit constexpr SplitMix64(std::uint64_t seed) : state(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

/// Mixes several 64-bit words into one; used to derive independent RNG
/// streams for (seed, node, round, purpose) tuples.
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t a,
                                                   std::uint64_t b) {
  SplitMix64 mixer(a ^ (0x9e3779b97f4a7c15ULL + (b << 6) + (b >> 2)));
  mixer.next();
  return mixer.next() ^ b;
}

/// xoshiro256** 1.0 (Blackman & Vigna). Fast, small state, passes all
/// standard statistical batteries; the recommended general-purpose engine.
class Rng {
 public:
  /// Seeds the full 256-bit state from a single 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL);

  /// Derives a statistically independent stream for a sub-purpose.
  /// Example: rng.fork(node_id).fork(round).
  [[nodiscard]] Rng fork(std::uint64_t stream_id) const;

  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform float in [0, 1).
  float uniform_float();

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire's method
  /// (unbiased, no modulo in the common case).
  std::uint64_t uniform_int(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_range(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box–Muller (cached second sample).
  double normal();

  /// Normal with given mean / stddev.
  double normal(double mean, double stddev);

  /// Advances the stream exactly as `count` calls to normal() would, so
  /// state() afterwards is equal field for field: the Box–Muller u1
  /// rejection loop and the cached second half of a pair included. Only
  /// the last pair does the log/sqrt/sin/cos work (its sine half is the
  /// cache normal() leaves); every other pair just consumes its uniforms.
  /// Lets a serial pass record where each chunk of a long normal stream
  /// begins, so the chunks can be generated in parallel bit for bit.
  void discard_normals(std::uint64_t count);

  /// Fills `out` with i.i.d. N(mean, stddev) floats.
  void fill_normal(std::span<float> out, float mean, float stddev);

  /// Fills `out` with i.i.d. U[lo, hi) floats.
  void fill_uniform(std::span<float> out, float lo, float hi);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> values) {
    if (values.size() < 2) return;
    for (std::size_t i = values.size() - 1; i > 0; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_int(i + 1));
      std::swap(values[i], values[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Bernoulli draw with success probability p.
  bool bernoulli(double p);

  /// Complete serializable generator state: the 256-bit xoshiro state plus
  /// the Box–Muller normal cache. Capturing and restoring it makes the
  /// stream continue bit-exactly — the contract fleet checkpoints
  /// (ckpt/fleet_image) rely on for crash-resumable simulations.
  struct State {
    std::uint64_t s[4] = {0, 0, 0, 0};
    double cached_normal = 0.0;
    bool has_cached_normal = false;
  };

  [[nodiscard]] State state() const;
  void set_state(const State& state);

 private:
  /// The u1, u2 uniforms one Box–Muller pair consumes; u1 in (0,1]
  /// avoids log(0). The one rule for how many draws a normal() uses.
  std::pair<double, double> box_muller_uniforms();

  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Stateless uniform draw in [0,1) determined entirely by the tuple
/// (seed, a, b). Used for per-(node, round) scheduling decisions so the
/// outcome never depends on thread interleaving or call order.
[[nodiscard]] double stateless_uniform(std::uint64_t seed, std::uint64_t a,
                                       std::uint64_t b);

}  // namespace skiptrain::util
