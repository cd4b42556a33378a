// Bit-identity of the vectorized codec kernels against the scalar
// reference paths: exhaustive over all 2^16 halves for fp16 decode (and
// encode of every exactly-representable half value, directed rounding
// neighborhoods, every float exponent around each rounding tie, and
// random bit patterns), fuzzed for the int8 block codecs including
// constant and denormal-heavy rows and the ±0 / NaN / ±Inf cases that
// decide between the vector and the sequential block scan.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "quant/codec.hpp"
#include "quant/kernels.hpp"
#include "util/rng.hpp"

namespace skiptrain::quant {
namespace {

TEST(Fp16Kernels, DecodeExhaustiveAllHalves) {
  std::vector<std::uint16_t> halves(1u << 16);
  for (std::size_t i = 0; i < halves.size(); ++i) {
    halves[i] = static_cast<std::uint16_t>(i);
  }
  std::vector<float> batch(halves.size()), scalar(halves.size());
  fp16_decode(halves.data(), batch);
  fp16_decode_scalar(halves.data(), scalar);
  std::size_t signaling = 0;
  for (std::size_t i = 0; i < halves.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(batch[i]),
              std::bit_cast<std::uint32_t>(scalar[i]))
        << "half 0x" << std::hex << halves[i];
    // Signaling NaNs (exponent 31, quiet bit clear, payload nonzero) are
    // where a hardware widening differs: it quiets them. They must stay
    // signaling, as in the reference.
    if ((halves[i] & 0x7e00u) == 0x7c00u && (halves[i] & 0x1ffu) != 0) {
      ++signaling;
      ASSERT_EQ(std::bit_cast<std::uint32_t>(batch[i]) & 0x00400000u, 0u)
          << "quieted half 0x" << std::hex << halves[i];
    }
  }
  EXPECT_EQ(signaling, 1022u);
}

TEST(Fp16Kernels, DecodeMatchesAtEveryLengthAndOffset) {
  // Every span length 0..40 at every start offset 0..7 of a mixed buffer
  // (normals, subnormals, ±0, ±Inf, qNaN, sNaN).
  const std::vector<std::uint16_t> mixed = {
      0x3c00, 0x0001, 0x8000, 0x7c00, 0x7e01, 0x7c01, 0xfc00, 0x03ff,
      0xfd55, 0x0400, 0x7bff, 0xc000, 0x0000, 0x8001, 0xfe00, 0x3555};
  std::vector<std::uint16_t> source;
  for (int copy = 0; copy < 4; ++copy) {
    source.insert(source.end(), mixed.begin(), mixed.end());
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 40; ++length) {
      std::vector<float> b(length), r(length);
      fp16_decode(source.data() + offset, b);
      fp16_decode_scalar(source.data() + offset, r);
      for (std::size_t i = 0; i < length; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(b[i]),
                  std::bit_cast<std::uint32_t>(r[i]))
            << "offset " << offset << " length " << length << " at " << i;
      }
    }
  }
}

void expect_encode_matches(const std::vector<float>& values,
                           const char* what) {
  std::vector<std::uint16_t> batch(values.size()), scalar(values.size());
  fp16_encode(values, batch.data());
  fp16_encode_scalar(values, scalar.data());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(batch[i], scalar[i])
        << what << ": float bits 0x" << std::hex
        << std::bit_cast<std::uint32_t>(values[i]);
  }
  fp16_encode_wire(values, batch.data());
  fp16_encode_wire_scalar(values, scalar.data());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(batch[i], scalar[i])
        << what << " (wire): float bits 0x" << std::hex
        << std::bit_cast<std::uint32_t>(values[i]);
  }
}

TEST(Fp16Kernels, EncodeEveryHalfValueAndRoundingNeighborhoods) {
  // Every float that is exactly a half value, and its ±1-ulp float
  // neighbors — this walks every rounding boundary region, including
  // subnormals, both zeros, Inf and NaN.
  std::vector<float> values;
  values.reserve(3u << 16);
  for (std::uint32_t h = 0; h < (1u << 16); ++h) {
    const float f = fp16_to_float(static_cast<std::uint16_t>(h));
    values.push_back(f);
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(f);
    values.push_back(std::bit_cast<float>(bits + 1));
    if ((bits & 0x7fffffffu) != 0) {
      values.push_back(std::bit_cast<float>(bits - 1));
    }
  }
  expect_encode_matches(values, "half-neighborhood");
}

TEST(Fp16Kernels, EncodeExactMidpointsRoundToEven) {
  // Exact ties between adjacent halves must round to even mantissas in
  // both paths. Construct midpoints from consecutive normal halves.
  std::vector<float> values;
  for (std::uint32_t h = 0x0400; h < 0x7bff; ++h) {  // positive normals
    const double a = fp16_to_float(static_cast<std::uint16_t>(h));
    const double b = fp16_to_float(static_cast<std::uint16_t>(h + 1));
    values.push_back(static_cast<float>((a + b) / 2.0));
  }
  expect_encode_matches(values, "midpoint");
}

TEST(Fp16Kernels, EncodeEveryExponentTiesAndSpecials) {
  // Every float exponent (0..255) and sign, with mantissas that sit on
  // and around the rounding boundary of every half path: the normal
  // path's 13 dropped bits (tie 0x1000 with an even and an odd kept
  // mantissa, and one below/above), the subnormal path's variable tie
  // (half_bit for every shift 14..24, even and odd), the carry into the
  // next exponent and into Inf, plus quiet and signaling NaN payloads.
  std::vector<float> values;
  std::vector<std::uint32_t> mantissas = {
      0x000000, 0x000001, 0x7fffff, 0x7fe000, 0x7ff000, 0x7fefff,
      0x001000, 0x003000, 0x000fff, 0x001001, 0x002fff, 0x003001,
      0x400000, 0x400001, 0x200000, 0x155555, 0x2aaaaa};
  for (std::uint32_t shift = 1; shift <= 24; ++shift) {
    const std::uint32_t half_bit = 1u << (shift - 1);
    for (const std::uint32_t kept : {0u, 1u, 2u, 3u}) {
      const std::uint64_t tie = (std::uint64_t{kept} << shift) | half_bit;
      for (const std::int64_t delta : {-1, 0, 1}) {
        mantissas.push_back(static_cast<std::uint32_t>(
            (static_cast<std::int64_t>(tie) + delta) & 0x7fffff));
      }
    }
  }
  for (std::uint32_t sign = 0; sign < 2; ++sign) {
    for (std::uint32_t exp = 0; exp < 256; ++exp) {
      for (const std::uint32_t mant : mantissas) {
        values.push_back(
            std::bit_cast<float>((sign << 31) | (exp << 23) | mant));
      }
    }
  }
  // Odd length: the last values also run through the scalar tail.
  values.push_back(std::numeric_limits<float>::infinity());
  values.push_back(-std::numeric_limits<float>::signaling_NaN());
  values.push_back(65520.0f);  // the smallest float that rounds to Inf
  expect_encode_matches(values, "exponent-sweep");
}

TEST(Fp16Kernels, EncodeRandomBitPatterns) {
  util::Rng rng(99);
  std::vector<float> values(1u << 20);
  for (auto& v : values) {
    v = std::bit_cast<float>(static_cast<std::uint32_t>(rng.next_u64()));
  }
  expect_encode_matches(values, "random-bits");
}

// --- int8 -------------------------------------------------------------------

void expect_int8_matches(const std::vector<float>& row, std::uint64_t stream,
                         const char* what) {
  const std::size_t blocks =
      (row.size() + kInt8BlockValues - 1) / kInt8BlockValues;
  std::vector<std::uint8_t> codes_v(row.size()), codes_s(row.size());
  std::vector<float> lo_v(blocks), lo_s(blocks), sc_v(blocks), sc_s(blocks);

  int8_encode(row, codes_v.data(), lo_v.data(), sc_v.data());
  int8_encode_scalar(row, codes_s.data(), lo_s.data(), sc_s.data());
  ASSERT_EQ(codes_v, codes_s) << what << " nearest codes";
  for (std::size_t b = 0; b < blocks; ++b) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(lo_v[b]),
              std::bit_cast<std::uint32_t>(lo_s[b]))
        << what << " lo block " << b;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(sc_v[b]),
              std::bit_cast<std::uint32_t>(sc_s[b]))
        << what << " scale block " << b;
  }
  std::vector<float> dec_v(row.size()), dec_s(row.size());
  int8_decode(row.size(), codes_v.data(), lo_v.data(), sc_v.data(),
              dec_v.data());
  int8_decode_scalar(row.size(), codes_s.data(), lo_s.data(), sc_s.data(),
                     dec_s.data());
  for (std::size_t i = 0; i < row.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(dec_v[i]),
              std::bit_cast<std::uint32_t>(dec_s[i]))
        << what << " nearest decode at " << i;
  }

  int8_encode_dithered(row, stream, codes_v.data(), lo_v.data(), sc_v.data());
  int8_encode_dithered_scalar(row, stream, codes_s.data(), lo_s.data(),
                              sc_s.data());
  ASSERT_EQ(codes_v, codes_s) << what << " dithered codes";
  int8_decode_dithered(row.size(), codes_v.data(), lo_v.data(), sc_v.data(),
                       stream, dec_v.data());
  int8_decode_dithered_scalar(row.size(), codes_s.data(), lo_s.data(),
                              sc_s.data(), stream, dec_s.data());
  for (std::size_t i = 0; i < row.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(dec_v[i]),
              std::bit_cast<std::uint32_t>(dec_s[i]))
        << what << " dithered decode at " << i;
  }
}

TEST(Int8Kernels, FuzzedRowsMatchScalar) {
  util::Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t dim = 1 + rng.uniform_int(4 * kInt8BlockValues + 3);
    std::vector<float> row(dim);
    rng.fill_normal(row, 0.0f, 2.0f);
    expect_int8_matches(row, dither_stream(42, trial), "fuzz");
  }
}

TEST(Int8Kernels, ConstantAndNearConstantBlocks) {
  std::vector<float> row(kInt8BlockValues * 2 + 5, 3.25f);
  expect_int8_matches(row, dither_stream(1, 1), "constant");
  row.assign(kInt8BlockValues, 0.0f);
  expect_int8_matches(row, dither_stream(1, 2), "zero");
  row.assign(kInt8BlockValues + 1, -7.5f);
  row.back() = -7.5f + 1e-7f;  // scale denormal-small
  expect_int8_matches(row, dither_stream(1, 3), "near-constant");
}

TEST(Int8Kernels, DenormalHeavyRows) {
  util::Rng rng(13);
  std::vector<float> row(3 * kInt8BlockValues);
  const float denorm = std::numeric_limits<float>::denorm_min();
  for (std::size_t i = 0; i < row.size(); ++i) {
    const auto scale = static_cast<float>(rng.uniform_int(2000));
    row[i] = denorm * scale * (rng.uniform() < 0.5 ? -1.0f : 1.0f);
  }
  expect_int8_matches(row, dither_stream(5, 9), "denormal");
  // Mixed denormal + normal magnitudes across one block.
  for (std::size_t i = 0; i < row.size(); i += 3) {
    row[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  expect_int8_matches(row, dither_stream(5, 10), "denormal-mixed");
}

TEST(Int8Kernels, InfiniteRangeAndNaNRowsStayDefinedAndMatchScalar) {
  // A block spanning ±huge overflows hi - lo to Inf (inv = 0), and a NaN
  // element inside an otherwise-finite block must not reach an undefined
  // float->int conversion; on x86 the scalar lroundf clamps all of these
  // to code 0, which the vectorized path replicates.
  std::vector<float> row(kInt8BlockValues, 1.0f);
  row[3] = 3.0e38f;
  row[9] = -3.0e38f;
  expect_int8_matches(row, dither_stream(2, 1), "inf-range");

  util::Rng rng(17);
  rng.fill_normal(row, 0.0f, 1.0f);
  row[kInt8BlockValues / 2] = std::numeric_limits<float>::quiet_NaN();
  expect_int8_matches(row, dither_stream(2, 2), "nan-element");
}

TEST(Int8Kernels, SingleElementAndPartialTrailingBlocks) {
  util::Rng rng(21);
  for (const std::size_t dim :
       {std::size_t{1}, std::size_t{2}, kInt8BlockValues - 1,
        kInt8BlockValues, kInt8BlockValues + 1, 3 * kInt8BlockValues - 1}) {
    std::vector<float> row(dim);
    rng.fill_normal(row, -1.0f, 4.0f);
    expect_int8_matches(row, dither_stream(77, dim), "partial-block");
  }
}

TEST(Int8Kernels, BlockScanEdgeCasesMatchScalar) {
  // The batch scan takes the vector min/max only for full blocks with no
  // ±0 and no NaN; every case below sits on one side of that rule. Rows
  // are the engine's 2,410 floats, so the last block holds 42 values.
  constexpr std::size_t kDim = 2410;
  ASSERT_EQ(kDim % kInt8BlockValues, 42u);
  util::Rng rng(41);
  std::vector<float> base(kDim);
  rng.fill_normal(base, 0.0f, 1.0f);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::size_t tail = kDim - 42;
  struct Case {
    const char* what;
    void (*edit)(std::vector<float>&, float, float, float, std::size_t);
  };
  const Case cases[] = {
      {"+0 then -0 at a block start",
       [](std::vector<float>& r, float, float, float, std::size_t) {
         r.assign(r.size(), 0.0f);
         r[64] = -0.0f;
         r[128 + 5] = -0.0f;
       }},
      {"-0 then +0 at a block start, ±0 as the block extremes",
       [](std::vector<float>& r, float, float, float, std::size_t) {
         for (std::size_t i = 0; i < r.size(); ++i) {
           r[i] = (i % 2 == 0) ? -0.0f : 0.0f;
         }
         r[200] = 0.0f;
         r[256] = -0.0f;
       }},
      {"±0 inside otherwise positive and negative blocks",
       [](std::vector<float>& r, float, float, float, std::size_t) {
         for (std::size_t i = 0; i < r.size(); ++i) r[i] = std::fabs(r[i]);
         r[64 * 3 + 7] = 0.0f;
         r[64 * 4] = -0.0f;
         r[64 * 5 + 1] = -r[64 * 5 + 1];
         r[64 * 5 + 2] = -0.0f;
       }},
      {"+0 then -0 as a block minimum, -0 then +0 as a maximum",
       [](std::vector<float>& r, float, float, float, std::size_t) {
         for (std::size_t i = 64; i < 128; ++i) r[i] = 1.0f + r[i] * r[i];
         r[65] = 0.0f;
         r[66] = -0.0f;
         for (std::size_t i = 128; i < 192; ++i) r[i] = -1.0f - r[i] * r[i];
         r[129] = -0.0f;
         r[138] = 0.0f;
       }},
      {"+0 then -0 in later groups and other lanes",
       [](std::vector<float>& r, float, float, float, std::size_t) {
         for (std::size_t i = 192; i < 256; ++i) r[i] = 1.0f + r[i] * r[i];
         r[192 + 9] = 0.0f;
         r[192 + 18] = -0.0f;
         for (std::size_t i = 256; i < 320; ++i) r[i] = -1.0f - r[i] * r[i];
         r[256 + 17] = -0.0f;
         r[256 + 42] = 0.0f;
       }},
      {"NaN in the first group, its lane later holding the extremes",
       [](std::vector<float>& r, float n, float, float, std::size_t) {
         r[641] = n;
         r[649] = -50.0f;
         r[657] = 50.0f;
       }},
      {"NaN at a block start and inside blocks",
       [](std::vector<float>& r, float n, float, float, std::size_t t) {
         r[0] = n;
         r[64 * 2 + 31] = n;
         r[64 * 7 + 63] = -n;
         r[t + 40] = n;
       }},
      {"±Inf inside blocks and at a block start",
       [](std::vector<float>& r, float, float i, float, std::size_t t) {
         r[64 + 3] = i;
         r[64 * 6] = -i;
         r[64 * 9 + 10] = i;
         r[64 * 9 + 11] = -i;
         r[t] = i;
       }},
      {"denormal-small ranges",
       [](std::vector<float>& r, float, float, float d, std::size_t) {
         for (std::size_t i = 0; i < r.size(); ++i) {
           r[i] = 1.0e-38f + d * static_cast<float>(i % 5);
         }
         for (std::size_t i = 64; i < 128; ++i) {
           r[i] = d * static_cast<float>(i % 3 + 1);
         }
       }},
      {"exact .5 ties: lo 0, hi 255, so t is the value itself",
       [](std::vector<float>& r, float, float, float, std::size_t t) {
         for (std::size_t b = 0; b < 3; ++b) {
           const std::size_t begin = b == 2 ? t : b * 64;
           const std::size_t end = b == 2 ? r.size() : begin + 64;
           r[begin] = 0.0f;
           r[begin + 1] = 255.0f;
           for (std::size_t i = begin + 2; i < end; ++i) {
             r[i] = static_cast<float>((i * 37) % 255) + 0.5f;
           }
         }
       }},
      {"constant blocks, the tail block included",
       [](std::vector<float>& r, float, float, float, std::size_t t) {
         std::fill(r.begin() + 64, r.begin() + 192, -2.5f);
         std::fill(r.begin() + static_cast<std::ptrdiff_t>(t), r.end(),
                   7.0f);
       }},
      {"extremes at every lane of the tail block",
       [](std::vector<float>& r, float, float, float, std::size_t t) {
         for (std::size_t i = t; i < r.size(); ++i) {
           r[i] = static_cast<float>(i - t) * ((i % 2 == 0) ? 1.0f : -1.0f);
         }
       }},
  };
  for (const Case& c : cases) {
    std::vector<float> row = base;
    c.edit(row, nan, inf, denorm, tail);
    expect_int8_matches(row, dither_stream(43, 1), c.what);
  }
  // Fuzz: 2,410-float rows with a sprinkling of the special values.
  const float specials[] = {0.0f, -0.0f, nan, inf, -inf, denorm, -denorm};
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<float> row(kDim);
    rng.fill_normal(row, static_cast<float>(rng.normal(0.0, 3.0)),
                    static_cast<float>(std::exp(rng.normal(0.0, 4.0))));
    const std::size_t edits = rng.uniform_int(4);
    for (std::size_t e = 0; e < edits; ++e) {
      row[rng.uniform_int(kDim)] = specials[rng.uniform_int(7)];
    }
    expect_int8_matches(row, dither_stream(44, trial), "fuzz-2410");
  }
}

TEST(CodecIntegration, RowCodecsUseBitIdenticalKernels) {
  // End-to-end: the RowCodec interface (now on the batch kernels) must
  // reproduce what the scalar reference paths produce.
  util::Rng rng(31);
  std::vector<float> row(2 * kInt8BlockValues + 17);
  rng.fill_normal(row, 0.0f, 1.0f);

  const auto fp16 = make_codec(Codec::kFp16);
  QuantizedRow wire;
  fp16->encode(row, wire);
  std::vector<std::uint16_t> expect_half(row.size());
  fp16_encode_wire_scalar(row, expect_half.data());
  EXPECT_EQ(wire.half, expect_half);
  std::vector<float> decoded(row.size()), expect_dec(row.size());
  fp16->decode(wire, decoded);
  fp16_decode_scalar(wire.half.data(), expect_dec);
  for (std::size_t i = 0; i < row.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(decoded[i]),
              std::bit_cast<std::uint32_t>(expect_dec[i]));
  }

  const auto int8d = make_codec(Codec::kInt8Dithered, 42);
  int8d->begin_round(3);
  int8d->encode(row, wire);
  std::vector<std::uint8_t> expect_codes(row.size());
  std::vector<float> lo(wire.num_blocks()), scale(wire.num_blocks());
  int8_encode_dithered_scalar(row, dither_stream(42, 3), expect_codes.data(),
                              lo.data(), scale.data());
  EXPECT_EQ(wire.codes, expect_codes);
  EXPECT_EQ(wire.round, 3u);
}

}  // namespace
}  // namespace skiptrain::quant
