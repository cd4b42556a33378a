#include "quant/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "quant/codec.hpp"

// fp16: the batch kernels dispatch once, on first use, to F16C
// conversions (vcvtps2ph with an explicit round-to-nearest-even,
// vcvtph2ps) where the CPU has them, and otherwise to the scalar
// reference loops. The hardware conversions are IEEE-exact and differ
// from the reference conversions only on NaN lanes, which are blended
// back to the reference bits. Like the clones below, this is GCC-only:
// other compilers build the scalar references.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#include <immintrin.h>
#define SKIPTRAIN_F16C 1
#endif

// int8: the batch kernels are element-wise exact (no reductions; the TU
// is built with -ffp-contract=off, so no clone contracts into FMA), so
// every ISA clone produces identical bits. The nearest-rounding body and
// the block min/max scan are written on GCC vector types of eight 32-bit
// lanes (GCC 12 auto-vectorizes neither loop): the AVX2 and v4 clones
// compile each step to one ymm register, and the default clone keeps
// baseline machines working with the same source lowered to SSE2.
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_ADDRESS__)
#define SKIPTRAIN_VEC_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#else
#define SKIPTRAIN_VEC_CLONES
#endif

namespace skiptrain::quant {

namespace {

#ifdef SKIPTRAIN_F16C
bool has_f16c() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0 &&
           __builtin_cpu_supports("f16c") != 0;
  }();
  return supported;
}

/// fp16_from_float (kWire: fp16_wire_from_float) eight floats at a time.
/// The wire variant clamps to ±65504 first: exactly the values that
/// would round to ±Inf then land on the largest finite half, and every
/// other value is unchanged. NaN lanes get the reference's sign | 0x7e00
/// in place of the hardware's payload-preserving quiet NaN.
template <bool kWire>
__attribute__((target("avx2,f16c"))) void fp16_encode_f16c(
    const float* src, std::uint16_t* dst, std::size_t n) {
  const __m128i sign_bit = _mm_set1_epi16(static_cast<short>(0x8000));
  const __m128i magnitude = _mm_set1_epi16(0x7fff);
  const __m128i half_inf = _mm_set1_epi16(0x7c00);
  const __m128i quiet_nan = _mm_set1_epi16(0x7e00);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 x = _mm256_loadu_ps(src + i);
    if (kWire) {  // operand order: minps/maxps pass a NaN in `x` through
      x = _mm256_max_ps(_mm256_set1_ps(-65504.0f),
                        _mm256_min_ps(_mm256_set1_ps(65504.0f), x));
    }
    const __m128i half = _mm256_cvtps_ph(x, _MM_FROUND_TO_NEAREST_INT);
    // A NaN converts to a NaN half, and only a NaN has magnitude > 0x7c00.
    const __m128i nan_lane =
        _mm_cmpgt_epi16(_mm_and_si128(half, magnitude), half_inf);
    const __m128i fixed =
        _mm_or_si128(_mm_and_si128(half, sign_bit), quiet_nan);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_blendv_epi8(half, fixed, nan_lane));
  }
  for (; i < n; ++i) {
    dst[i] = kWire ? fp16_wire_from_float(src[i]) : fp16_from_float(src[i]);
  }
}

/// fp16_to_float eight halves at a time. vcvtph2ps quiets signaling NaNs
/// (1,022 of the 65,536 patterns); the reference keeps every NaN payload
/// as is, so a group holding an Inf or NaN takes the reference's bits
/// (sign | 0x7f800000 | mant << 13) on those lanes.
__attribute__((target("avx2,f16c"))) void fp16_decode_f16c(
    const std::uint16_t* src, float* dst, std::size_t n) {
  const __m128i exp_mask = _mm_set1_epi16(0x7c00);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i half =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    __m256 value = _mm256_cvtph_ps(half);
    const __m128i infnan16 =
        _mm_cmpeq_epi16(_mm_and_si128(half, exp_mask), exp_mask);
    if (!_mm_testz_si128(infnan16, infnan16)) {
      const __m256i h = _mm256_cvtepu16_epi32(half);
      const __m256i infnan = _mm256_or_si256(
          _mm256_or_si256(
              _mm256_slli_epi32(
                  _mm256_and_si256(h, _mm256_set1_epi32(0x8000)), 16),
              _mm256_set1_epi32(0x7f800000)),
          _mm256_slli_epi32(_mm256_and_si256(h, _mm256_set1_epi32(0x3ff)),
                            13));
      value = _mm256_blendv_ps(
          value, _mm256_castsi256_ps(infnan),
          _mm256_castsi256_ps(_mm256_cvtepi16_epi32(infnan16)));
    }
    _mm256_storeu_ps(dst + i, value);
  }
  for (; i < n; ++i) dst[i] = fp16_to_float(src[i]);
}
#endif

// Eight lanes of 32 bits: one AVX2 register.
constexpr std::size_t kLanes = 8;
using i32x8 = std::int32_t __attribute__((vector_size(32)));
using f32x8 = float __attribute__((vector_size(32)));
using u8x8 = std::uint8_t __attribute__((vector_size(8)));

// The lane helpers pass vectors through memory or by reference, never by
// value: a 32-byte vector crossing a call boundary in the default clone
// would change the ABI.
template <typename V>
[[gnu::always_inline]] inline void load_lanes(const void* src, V& v) {
  std::memcpy(&v, src, sizeof(v));
}

template <typename V>
[[gnu::always_inline]] inline void store_lanes(void* dst, const V& v) {
  std::memcpy(dst, &v, sizeof(v));
}

/// Eight int8-nearest codes: positive half-away-from-zero, bitwise equal
/// to the reference's clamped lroundf. t >= 0 by construction (lo is the
/// block minimum and inv > 0) and stays below 256 for a finite inv, so
/// truncation is floor and t - floor(t) is exact. The clamp keeps the
/// conversion in range; a NaN element (of a poisoned row whose block
/// endpoints are finite) is mapped to 0 first and lands on code 0, the
/// reference's clamped result.
[[gnu::always_inline]] inline void int8_lanes_nearest(const float* src,
                                                      float lo, float inv,
                                                      std::uint8_t* dst) {
  f32x8 x;
  load_lanes(src, x);
  const f32x8 t = (x - lo) * inv;
  const f32x8 cap = f32x8{} + 256.0f;
  const f32x8 tc = t == t ? (t < cap ? t : cap) : f32x8{};
  const i32x8 r = __builtin_convertvector(tc, i32x8);
  const f32x8 frac = tc - __builtin_convertvector(r, f32x8);
  i32x8 q = r - (frac >= f32x8{} + 0.5f);  // a true compare lane is -1
  const i32x8 max_code = i32x8{} + 255;
  q = q < max_code ? q : max_code;
  store_lanes(dst, __builtin_convertvector(q, u8x8));
}

template <int... kPermutation>
[[gnu::always_inline]] inline void fold_lanes(f32x8& lo, f32x8& hi,
                                              i32x8& flags) {
  const f32x8 lo2 = __builtin_shufflevector(lo, lo, kPermutation...);
  const f32x8 hi2 = __builtin_shufflevector(hi, hi, kPermutation...);
  lo = lo2 < lo ? lo2 : lo;
  hi = hi2 > hi ? hi2 : hi;
  flags |= __builtin_shufflevector(flags, flags, kPermutation...);
}

/// Vector min/max of one full block, or false when the block holds a
/// ±0 or a NaN. Only then does the order of the scan matter (std::min
/// keeps the first of two equal or unordered values), so those blocks
/// take the sequential scan; in every other block the minimum and the
/// maximum are unique bit patterns and any order finds them.
[[gnu::always_inline]] inline bool block_min_max_lanes(const float* src,
                                                       float& lo, float& hi) {
  f32x8 vlo;
  load_lanes(src, vlo);
  f32x8 vhi = vlo;
  const f32x8 zero{};
  i32x8 unordered = (vlo == zero) | (vlo != vlo);
  for (std::size_t i = kLanes; i < kInt8BlockValues; i += kLanes) {
    f32x8 x;
    load_lanes(src + i, x);
    vlo = x < vlo ? x : vlo;
    vhi = x > vhi ? x : vhi;
    unordered |= (x == zero) | (x != x);
  }
  // Fold the eight lanes in three halving steps (lane 0 ends up holding
  // the result); the order is free here.
  fold_lanes<4, 5, 6, 7, 0, 1, 2, 3>(vlo, vhi, unordered);
  fold_lanes<2, 3, 0, 1, 6, 7, 4, 5>(vlo, vhi, unordered);
  fold_lanes<1, 0, 3, 2, 5, 4, 7, 6>(vlo, vhi, unordered);
  if (unordered[0] != 0) return false;
  lo = vlo[0];
  hi = vhi[0];
  return true;
}

inline float dither_uniform_at(std::uint64_t stream,
                               std::uint64_t coordinate) {
  std::uint64_t z = stream + coordinate * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<float>(z >> 40) * 0x1.0p-24f;
}

/// Shared int8 block skeleton. The min/max scan is the seed's sequential
/// one (so ±0 ties select the same bits), except that with `kVectorScan`
/// full blocks without ±0 or NaN take block_min_max_lanes, which finds
/// the same bits; the quantize loop differs per variant.
template <bool kVectorScan, typename Quantize>
[[gnu::always_inline]] inline void int8_encode_blocks(
    std::span<const float> row, std::uint8_t* codes, float* lo_out,
    float* scale_out, Quantize&& quantize) {
  const std::size_t blocks =
      (row.size() + kInt8BlockValues - 1) / kInt8BlockValues;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * kInt8BlockValues;
    const std::size_t end = std::min(begin + kInt8BlockValues, row.size());
    float lo = row[begin];
    float hi = row[begin];
    if (!kVectorScan || end - begin != kInt8BlockValues ||
        !block_min_max_lanes(row.data() + begin, lo, hi)) {
      for (std::size_t i = begin + 1; i < end; ++i) {
        lo = std::min(lo, row[i]);
        hi = std::max(hi, row[i]);
      }
    }
    const float scale = (hi - lo) / 255.0f;
    lo_out[b] = lo;
    scale_out[b] = scale;
    if (scale <= 0.0f) {
      std::fill(codes + begin, codes + end, std::uint8_t{0});
      continue;
    }
    const float inv_scale = 1.0f / scale;
    quantize(begin, end, lo, inv_scale);
  }
}

}  // namespace

// --- dither stream ----------------------------------------------------------

std::uint64_t dither_stream(std::uint64_t seed, std::size_t round) {
  // SplitMix64 over (seed ^ round-tag): cheap, and the per-coordinate Weyl
  // walk above decorrelates rounds with nearby ids.
  std::uint64_t z = seed ^ (0xd1770000ULL + round);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

float dither_uniform(std::uint64_t stream, std::uint64_t coordinate) {
  return dither_uniform_at(stream, coordinate);
}

// --- fp16 -------------------------------------------------------------------

std::uint16_t fp16_wire_from_float(float value) {
  const std::uint16_t half = fp16_from_float(value);
  if ((half & 0x7fffu) == 0x7c00u) {  // ±Inf
    return static_cast<std::uint16_t>((half & 0x8000u) | 0x7bffu);
  }
  return half;
}

void fp16_encode(std::span<const float> src, std::uint16_t* dst) {
#ifdef SKIPTRAIN_F16C
  if (has_f16c()) return fp16_encode_f16c<false>(src.data(), dst, src.size());
#endif
  fp16_encode_scalar(src, dst);
}

void fp16_encode_wire(std::span<const float> src, std::uint16_t* dst) {
#ifdef SKIPTRAIN_F16C
  if (has_f16c()) return fp16_encode_f16c<true>(src.data(), dst, src.size());
#endif
  fp16_encode_wire_scalar(src, dst);
}

void fp16_decode(const std::uint16_t* src, std::span<float> dst) {
#ifdef SKIPTRAIN_F16C
  if (has_f16c()) return fp16_decode_f16c(src, dst.data(), dst.size());
#endif
  fp16_decode_scalar(src, dst);
}

void fp16_encode_scalar(std::span<const float> src, std::uint16_t* dst) {
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = fp16_from_float(src[i]);
}

void fp16_encode_wire_scalar(std::span<const float> src, std::uint16_t* dst) {
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = fp16_wire_from_float(src[i]);
  }
}

void fp16_decode_scalar(const std::uint16_t* src, std::span<float> dst) {
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = fp16_to_float(src[i]);
}

// --- int8 -------------------------------------------------------------------

SKIPTRAIN_VEC_CLONES
void int8_encode(std::span<const float> row, std::uint8_t* codes, float* lo,
                 float* scale) {
  const float* in = row.data();
  std::uint8_t* out = codes;
  int8_encode_blocks<true>(
      row, codes, lo, scale,
      [in, out](std::size_t begin, std::size_t end, float blo, float inv) {
        if (!(inv > 0.0f) || inv > std::numeric_limits<float>::max()) {
          // Degenerate block range: a denormal-small scale gave inv = Inf,
          // an infinite range (hi - lo overflow) gave inv = 0, or a NaN
          // endpoint gave inv = NaN. In all three the reference's
          // lroundf(±Inf / NaN / ±0) clamps to code 0 for the whole block
          // (via the x86 saturating float→long conversion). Replicate
          // that bitwise.
          std::fill(out + begin, out + end, std::uint8_t{0});
          return;
        }
        std::size_t i = begin;
        for (; i + kLanes <= end; i += kLanes) {
          int8_lanes_nearest(in + i, blo, inv, out + i);
        }
        if (i < end) {  // the row's short last block: pad to eight lanes
          float tail[kLanes] = {};
          std::uint8_t tail_codes[kLanes];
          std::copy(in + i, in + end, tail);
          int8_lanes_nearest(tail, blo, inv, tail_codes);
          std::copy(tail_codes, tail_codes + (end - i), out + i);
        }
      });
}

SKIPTRAIN_VEC_CLONES
void int8_encode_dithered(std::span<const float> row, std::uint64_t stream,
                          std::uint8_t* codes, float* lo, float* scale) {
  const float* __restrict__ in = row.data();
  std::uint8_t* __restrict__ out = codes;
  int8_encode_blocks<true>(
      row, codes, lo, scale,
      [in, out, stream](std::size_t begin, std::size_t end, float blo,
                        float inv) {
        for (std::size_t i = begin; i < end; ++i) {
          const float t = (in[i] - blo) * inv;
          const float u = dither_uniform_at(stream, i);
          out[i] = static_cast<std::uint8_t>(
              std::min(255.0f, std::max(0.0f, std::floor(t + u))));
        }
      });
}

SKIPTRAIN_VEC_CLONES
void int8_decode(std::size_t dim, const std::uint8_t* codes, const float* lo,
                 const float* scale, float* out_ptr) {
  const std::uint8_t* __restrict__ in = codes;
  float* __restrict__ out = out_ptr;
  const std::size_t blocks = (dim + kInt8BlockValues - 1) / kInt8BlockValues;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * kInt8BlockValues;
    const std::size_t end = std::min(begin + kInt8BlockValues, dim);
    const float blo = lo[b];
    const float bscale = scale[b];
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = blo + bscale * static_cast<float>(in[i]);
    }
  }
}

SKIPTRAIN_VEC_CLONES
void int8_decode_dithered(std::size_t dim, const std::uint8_t* codes,
                          const float* lo, const float* scale,
                          std::uint64_t stream, float* out_ptr) {
  const std::uint8_t* __restrict__ in = codes;
  float* __restrict__ out = out_ptr;
  const std::size_t blocks = (dim + kInt8BlockValues - 1) / kInt8BlockValues;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * kInt8BlockValues;
    const std::size_t end = std::min(begin + kInt8BlockValues, dim);
    const float blo = lo[b];
    const float bscale = scale[b];
    for (std::size_t i = begin; i < end; ++i) {
      const float u = dither_uniform_at(stream, i);
      out[i] = blo + bscale * (static_cast<float>(in[i]) + 0.5f - u);
    }
  }
}

// --- scalar int8 references (the seed per-element code, verbatim) -----------

void int8_encode_scalar(std::span<const float> row, std::uint8_t* codes,
                        float* lo, float* scale) {
  int8_encode_blocks<false>(
      row, codes, lo, scale,
      [&row, codes](std::size_t begin, std::size_t end, float blo, float inv) {
        for (std::size_t i = begin; i < end; ++i) {
          const float t = (row[i] - blo) * inv;
          codes[i] = static_cast<std::uint8_t>(
              std::min(255L, std::max(0L, std::lroundf(t))));
        }
      });
}

void int8_encode_dithered_scalar(std::span<const float> row,
                                 std::uint64_t stream, std::uint8_t* codes,
                                 float* lo, float* scale) {
  int8_encode_blocks<false>(
      row, codes, lo, scale,
      [&row, codes, stream](std::size_t begin, std::size_t end, float blo,
                            float inv) {
        for (std::size_t i = begin; i < end; ++i) {
          const float t = (row[i] - blo) * inv;
          const float u = dither_uniform(stream, i);
          codes[i] = static_cast<std::uint8_t>(
              std::min(255.0f, std::max(0.0f, std::floor(t + u))));
        }
      });
}

void int8_decode_scalar(std::size_t dim, const std::uint8_t* codes,
                        const float* lo, const float* scale, float* out) {
  const std::size_t blocks = (dim + kInt8BlockValues - 1) / kInt8BlockValues;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * kInt8BlockValues;
    const std::size_t end = std::min(begin + kInt8BlockValues, dim);
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = lo[b] + scale[b] * static_cast<float>(codes[i]);
    }
  }
}

void int8_decode_dithered_scalar(std::size_t dim, const std::uint8_t* codes,
                                 const float* lo, const float* scale,
                                 std::uint64_t stream, float* out) {
  const std::size_t blocks = (dim + kInt8BlockValues - 1) / kInt8BlockValues;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * kInt8BlockValues;
    const std::size_t end = std::min(begin + kInt8BlockValues, dim);
    for (std::size_t i = begin; i < end; ++i) {
      const float u = dither_uniform(stream, i);
      out[i] = lo[b] + scale[b] * (static_cast<float>(codes[i]) + 0.5f - u);
    }
  }
}

}  // namespace skiptrain::quant
