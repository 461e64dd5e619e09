// Seeded scalar-vs-AVX2 parity suite: every KernelTable entry must return
// BIT-IDENTICAL results from both tables for identical inputs. This is the
// contract that lets the §4.6 fresh-scan reference stay bit-equal to the
// service path under either DEEPEVEREST_KERNELS mode. Both tables are
// exercised in one process via GetKernelTable(mode) — no env involved.

#include "kernels/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bit_pack.h"
#include "common/rng.h"

namespace deepeverest {
namespace kernels {
namespace {

/// Bitwise comparison that distinguishes +0.0/-0.0 and NaN payloads.
::testing::AssertionResult BitsEqual(const std::vector<double>& a,
                                     const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t ba = 0;
    uint64_t bb = 0;
    std::memcpy(&ba, &a[i], sizeof(ba));
    std::memcpy(&bb, &b[i], sizeof(bb));
    if (ba != bb) {
      return ::testing::AssertionFailure()
             << "row " << i << ": " << a[i] << " (0x" << std::hex << ba
             << ") vs " << b[i] << " (0x" << bb << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

class KernelsParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Avx2Supported()) {
      GTEST_SKIP() << "no AVX2 on this machine; nothing to compare";
    }
  }
};

// Odd lengths and row counts on purpose: every combination of SIMD body,
// column epilogue (n % 4) and row tail (num_rows % 8 / % 4) gets hit.
const size_t kLengths[] = {1, 2, 3, 4, 5, 7, 8, 13, 16, 17, 31, 33, 64, 100};
const size_t kRowCounts[] = {1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 40};

TEST_F(KernelsParityTest, AggregationAllKindsOddShapesUnalignedTails) {
  const KernelTable& scalar = GetKernelTable(DispatchMode::kScalar);
  const KernelTable& avx2 = GetKernelTable(DispatchMode::kAvx2);
  Rng rng(2024);
  for (const size_t n : kLengths) {
    for (const size_t num_rows : kRowCounts) {
      // Strided layout (stride > n) in half the cases.
      const size_t stride = (n + num_rows) % 2 == 0 ? n : n + 3;
      std::vector<float> rows(num_rows * stride);
      for (float& v : rows) {
        v = static_cast<float>(rng.NextDouble() * 8.0 - 4.0);
      }
      // Inject signed zeros and exact ties so the max path's tie-breaking
      // is exercised, not just generic values.
      if (rows.size() > 4) {
        rows[1] = -0.0f;
        rows[2] = 0.0f;
        rows[3] = rows[0];
      }
      std::vector<float> target(n);
      for (float& v : target) {
        v = static_cast<float>(rng.NextDouble() * 8.0 - 4.0);
      }
      std::vector<double> weights(n);
      for (double& w : weights) w = rng.NextDouble() * 2.0;

      for (int k = 0; k < kNumAggKinds; ++k) {
        std::vector<double> out_scalar(num_rows, -1.0);
        std::vector<double> out_avx2(num_rows, -2.0);
        scalar.abs_diff_agg[k](rows.data(), stride, num_rows, target.data(),
                               weights.data(), n, out_scalar.data());
        avx2.abs_diff_agg[k](rows.data(), stride, num_rows, target.data(),
                             weights.data(), n, out_avx2.data());
        EXPECT_TRUE(BitsEqual(out_scalar, out_avx2))
            << "abs_diff kind=" << k << " n=" << n << " rows=" << num_rows;

        scalar.value_agg[k](rows.data(), stride, num_rows, weights.data(), n,
                            out_scalar.data());
        avx2.value_agg[k](rows.data(), stride, num_rows, weights.data(), n,
                          out_avx2.data());
        EXPECT_TRUE(BitsEqual(out_scalar, out_avx2))
            << "value kind=" << k << " n=" << n << " rows=" << num_rows;
      }
    }
  }
}

TEST_F(KernelsParityTest, AggregationAllNegativeRows) {
  // The linf value kernel must track the scalar seed-from-first behaviour
  // for all-negative rows (no phantom zero in either table).
  const KernelTable& scalar = GetKernelTable(DispatchMode::kScalar);
  const KernelTable& avx2 = GetKernelTable(DispatchMode::kAvx2);
  Rng rng(5);
  const size_t n = 9;
  const size_t num_rows = 11;
  std::vector<float> rows(num_rows * n);
  for (float& v : rows) {
    v = static_cast<float>(-rng.NextDouble() * 5.0 - 0.25);
  }
  std::vector<double> weights(n, 1.0);
  for (int k = 0; k < kNumAggKinds; ++k) {
    std::vector<double> out_scalar(num_rows);
    std::vector<double> out_avx2(num_rows);
    scalar.value_agg[k](rows.data(), n, num_rows, weights.data(), n,
                        out_scalar.data());
    avx2.value_agg[k](rows.data(), n, num_rows, weights.data(), n,
                      out_avx2.data());
    EXPECT_TRUE(BitsEqual(out_scalar, out_avx2)) << "kind=" << k;
    if (k == static_cast<int>(AggKind::kLInf)) {
      for (const double v : out_scalar) EXPECT_LT(v, 0.0);
    }
  }
}

TEST_F(KernelsParityTest, UnpackAllWidthsAndOffsets) {
  const KernelTable& scalar = GetKernelTable(DispatchMode::kScalar);
  const KernelTable& avx2 = GetKernelTable(DispatchMode::kAvx2);
  Rng rng(77);
  for (const int bits : {1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32, 33, 64}) {
    const size_t n = 513;
    const size_t num_words =
        (n * static_cast<size_t>(bits) + 63) / 64;
    std::vector<uint64_t> words(num_words);
    for (uint64_t& w : words) w = rng.NextUint64();
    for (const size_t begin :
         {size_t{0}, size_t{1}, size_t{3}, size_t{15}, size_t{16},
          size_t{63}, size_t{64}, size_t{65}, size_t{300}}) {
      for (const size_t count :
           {size_t{0}, size_t{1}, size_t{4}, size_t{16}, size_t{63},
            size_t{64}, size_t{129}, size_t{200}}) {
        if (begin + count > n) continue;
        std::vector<uint64_t> out_scalar(count + 1, 0xAAu);
        std::vector<uint64_t> out_avx2(count + 1, 0xBBu);
        scalar.unpack(words.data(), num_words, bits, begin, count,
                      out_scalar.data());
        avx2.unpack(words.data(), num_words, bits, begin, count,
                    out_avx2.data());
        for (size_t i = 0; i < count; ++i) {
          ASSERT_EQ(out_scalar[i], out_avx2[i])
              << "bits=" << bits << " begin=" << begin << " count=" << count
              << " i=" << i;
        }
        // Neither kernel may write past `count`.
        EXPECT_EQ(out_scalar[count], 0xAAu);
        EXPECT_EQ(out_avx2[count], 0xBBu);
      }
    }
  }
}

/// Bit-by-bit reference read of packed element `index`.
uint64_t ReferenceGet(const std::vector<uint64_t>& words, int bits,
                      size_t index) {
  uint64_t v = 0;
  for (int b = 0; b < bits; ++b) {
    const size_t bit = index * static_cast<size_t>(bits) + b;
    v |= ((words[bit / 64] >> (bit % 64)) & 1ull) << b;
  }
  return v;
}

/// Runs `select_eq` of `table` on one case and checks it against the
/// reference loop, including that nothing is written past `count`.
void ExpectSelectMatchesReference(const KernelTable& table,
                                  const std::vector<uint64_t>& words,
                                  int bits, size_t begin, size_t count,
                                  uint64_t value) {
  std::vector<uint32_t> expected;
  for (size_t i = 0; i < count; ++i) {
    if (ReferenceGet(words, bits, begin + i) == value) {
      expected.push_back(static_cast<uint32_t>(i));
    }
  }
  std::vector<uint32_t> out(count + 1, 0xDEADBEEFu);
  const size_t found = table.select_eq(words.data(), words.size(), bits,
                                       begin, count, value, out.data());
  ASSERT_EQ(found, expected.size())
      << table.name << " bits=" << bits << " begin=" << begin
      << " count=" << count << " value=" << value;
  for (size_t j = 0; j < found; ++j) {
    ASSERT_EQ(out[j], expected[j])
        << table.name << " bits=" << bits << " begin=" << begin
        << " count=" << count << " value=" << value << " match " << j;
  }
  EXPECT_EQ(out[count], 0xDEADBEEFu) << table.name << " wrote past count";
}

// Not a KernelsParityTest: the scalar table is checked against the
// reference even on machines without AVX2.
TEST(KernelsSelectEqTest, AllWidthsRangesAndValuesMatchReference) {
  std::vector<const KernelTable*> tables = {
      &GetKernelTable(DispatchMode::kScalar)};
  if (Avx2Supported()) tables.push_back(&GetKernelTable(DispatchMode::kAvx2));
  Rng rng(4242);
  const size_t n = 517;
  for (int bits = 1; bits <= 32; ++bits) {
    // Exactly as many words as the elements need, so the last elements sit
    // at the very end of the array (the SIMD path must not read past it).
    std::vector<uint64_t> words((n * static_cast<size_t>(bits) + 63) / 64);
    for (uint64_t& w : words) w = rng.NextUint64();
    const uint64_t mask = (1ull << bits) - 1;
    std::vector<std::pair<size_t, size_t>> ranges = {
        {0, 0}, {0, 1}, {n - 1, 1}, {0, n}, {1, n - 1}, {3, 61},
        {5, 8 * 7 + 3}, {n - 9, 9}, {n - 8, 8}, {64, 64}};
    for (int t = 0; t < 24; ++t) {
      const size_t begin = rng.NextUint64() % n;
      const size_t count = rng.NextUint64() % (n - begin + 1);
      ranges.emplace_back(begin, count);
    }
    for (const auto& [begin, count] : ranges) {
      std::vector<uint64_t> values;
      // Present: the first, a middle and the last value of the range.
      if (count > 0) {
        values.push_back(ReferenceGet(words, bits, begin));
        values.push_back(ReferenceGet(words, bits, begin + count / 2));
        values.push_back(ReferenceGet(words, bits, begin + count - 1));
      }
      // Absent: a value no element in the range holds, when one exists in
      // the width, and always one that does not fit the width at all.
      for (int attempt = 0; attempt < 64; ++attempt) {
        const uint64_t candidate = rng.NextUint64() & mask;
        bool present = false;
        for (size_t i = 0; i < count && !present; ++i) {
          present = ReferenceGet(words, bits, begin + i) == candidate;
        }
        if (!present) {
          values.push_back(candidate);
          break;
        }
      }
      values.push_back(mask + 1);
      for (const KernelTable* table : tables) {
        for (const uint64_t value : values) {
          ExpectSelectMatchesReference(*table, words, bits, begin, count,
                                       value);
        }
      }
    }
  }
}

// Dense matches: every element equal, so every lane of every SIMD step
// reports a hit and the tail must continue the offsets correctly.
TEST(KernelsSelectEqTest, EveryElementMatching) {
  std::vector<const KernelTable*> tables = {
      &GetKernelTable(DispatchMode::kScalar)};
  if (Avx2Supported()) tables.push_back(&GetKernelTable(DispatchMode::kAvx2));
  for (const int bits : {1, 3, 5, 7, 13, 25, 26, 32}) {
    const size_t n = 203;
    PackedIntArray packed(n, bits);
    const uint64_t value = (1ull << (bits - 1)) | 1ull;
    for (size_t i = 0; i < n; ++i) packed.Set(i, value);
    for (const KernelTable* table : tables) {
      ExpectSelectMatchesReference(*table, packed.words(), bits, 0, n, value);
      ExpectSelectMatchesReference(*table, packed.words(), bits, 7, n - 7,
                                   value);
    }
  }
}

// Zero-dropping (IQA row packing): both tables against a reference loop,
// over lengths around the 8-lane and 64-bit word boundaries and zero
// densities from none to all, with -0.0f and NaN payloads that must stay.
TEST(KernelsNonZeroTest, MaskAndCompactMatchReference) {
  std::vector<const KernelTable*> tables = {
      &GetKernelTable(DispatchMode::kScalar)};
  if (Avx2Supported()) tables.push_back(&GetKernelTable(DispatchMode::kAvx2));
  Rng rng(606);
  const uint32_t nan_bits = 0x7fc00abcu;
  for (const size_t n : {0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 200, 1000}) {
    for (const double zero_frac : {0.0, 0.1, 0.5, 0.9, 1.0}) {
      std::vector<float> in(n);
      for (float& v : in) {
        const double dice = rng.NextDouble();
        if (dice < zero_frac) {
          v = 0.0f;
        } else if (dice < zero_frac + 0.02) {
          v = -0.0f;
        } else if (dice < zero_frac + 0.04) {
          std::memcpy(&v, &nan_bits, sizeof(v));
        } else {
          v = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
        }
      }
      std::vector<uint64_t> want_words((n + 63) / 64, 0);
      std::vector<uint32_t> want_values;
      for (size_t i = 0; i < n; ++i) {
        uint32_t bits = 0;
        std::memcpy(&bits, &in[i], sizeof(bits));
        if (bits == 0) continue;
        want_words[i / 64] |= uint64_t{1} << (i % 64);
        want_values.push_back(bits);
      }
      for (const KernelTable* table : tables) {
        std::vector<uint64_t> words(want_words.size(), ~0ull);
        ASSERT_EQ(table->nonzero_mask(in.data(), n, words.data()),
                  want_values.size())
            << table->name << " n=" << n << " zeros=" << zero_frac;
        EXPECT_EQ(words, want_words) << table->name << " n=" << n;
        // One guard slot past `count`: nothing may be written there.
        std::vector<float> out(want_values.size() + 1);
        const uint32_t guard = 0x12345678u;
        std::memcpy(&out.back(), &guard, sizeof(guard));
        table->compact(in.data(), n, want_words.data(), want_values.size(),
                       out.data());
        for (size_t k = 0; k < want_values.size(); ++k) {
          uint32_t bits = 0;
          std::memcpy(&bits, &out[k], sizeof(bits));
          ASSERT_EQ(bits, want_values[k])
              << table->name << " n=" << n << " zeros=" << zero_frac
              << " k=" << k;
        }
        uint32_t after = 0;
        std::memcpy(&after, &out.back(), sizeof(after));
        EXPECT_EQ(after, guard) << table->name << " wrote past count";
      }
    }
  }
}

// The convolution loop nn::Conv2D::Forward ran before it moved into the
// kernel table, kept verbatim as the op-order reference: bias first, taps
// in (kh, kw) row-major order with out-of-bounds taps skipped, input
// channels ascending, one multiply then one add per step.
void ReferenceConv2dHwc(const float* in, int64_t height, int64_t width,
                        int ic, const float* weights, const float* bias,
                        int oc, int kernel, float* o) {
  const int pad = kernel / 2;
  for (int64_t h = 0; h < height; ++h) {
    for (int64_t w = 0; w < width; ++w) {
      float* out_px = o + (h * width + w) * oc;
      for (int c = 0; c < oc; ++c) out_px[c] = bias[static_cast<size_t>(c)];
      for (int kh = 0; kh < kernel; ++kh) {
        const int64_t ih = h + kh - pad;
        if (ih < 0 || ih >= height) continue;
        for (int kw = 0; kw < kernel; ++kw) {
          const int64_t iw = w + kw - pad;
          if (iw < 0 || iw >= width) continue;
          const float* in_px = in + (ih * width + iw) * ic;
          const float* wbase =
              weights + (static_cast<size_t>(kh) * kernel + kw) * ic * oc;
          for (int i = 0; i < ic; ++i) {
            const float v = in_px[i];
            const float* wrow = wbase + static_cast<size_t>(i) * oc;
            for (int c = 0; c < oc; ++c) out_px[c] += v * wrow[c];
          }
        }
      }
    }
  }
}

// Values that stress bit-exactness: exact zeros of both signs, subnormals
// and ordinary magnitudes. `relu_like` drops the negatives, as a post-ReLU
// activation map would.
float ConvValue(Rng* rng, bool relu_like) {
  const double dice = rng->NextDouble();
  float v;
  if (dice < 0.15) {
    v = 0.0f;
  } else if (dice < 0.25) {
    v = -0.0f;
  } else if (dice < 0.30) {
    v = static_cast<float>(rng->NextDouble() + 0.5) * 1e-39f;  // subnormal
  } else {
    v = static_cast<float>(rng->NextGaussian());
  }
  return relu_like ? std::max(v, 0.0f) : v;
}

// Every (oc, kernel, height, width) of the grid below, with a seeded pick of
// the input channel count and four value profiles cycled through: generic;
// ReLU-like inputs; a -0.0f image under a -0.0f bias and positive weights,
// where a zero-padded tap would turn a -0.0f output into +0.0f; and tiny
// weights whose products with the subnormal inputs underflow. The small and
// odd sizes cover images narrower than a pixel block and every masked
// channel tail.
TEST(KernelsConv2dTest, BothTablesBitIdenticalToReferenceLoop) {
  std::vector<const KernelTable*> tables = {
      &GetKernelTable(DispatchMode::kScalar)};
  if (Avx2Supported()) tables.push_back(&GetKernelTable(DispatchMode::kAvx2));
  Rng rng(1717);
  const uint32_t guard = 0x7fc0dead;  // a NaN no kernel computes
  const int kInChannels[] = {1, 2, 3, 8, 12, 17};
  int profile = 0;
  for (int oc = 1; oc <= 33; ++oc) {
    for (const int kernel : {1, 3, 5}) {
      for (const int height : {1, 2, 3, 5, 8, 17}) {
        for (const int width : {1, 2, 3, 5, 8, 17}) {
          const int ic = kInChannels[rng.NextUint64() % 6];
          profile = (profile + 1) % 4;
          std::vector<float> in(static_cast<size_t>(height) * width * ic);
          std::vector<float> weights(static_cast<size_t>(kernel) * kernel *
                                     ic * oc);
          std::vector<float> bias(static_cast<size_t>(oc));
          for (float& v : in) v = ConvValue(&rng, profile == 1);
          for (float& v : weights) v = ConvValue(&rng, false);
          for (float& v : bias) v = ConvValue(&rng, false);
          if (profile == 2) {
            // Every in-bounds product is -0.0f, so every output is -0.0f
            // unless a tap outside the image adds a +0.0f.
            for (float& v : in) v = -0.0f;
            for (float& v : weights) v = std::abs(v);
            for (float& v : bias) v = -0.0f;
          }
          if (profile == 3) {
            for (float& v : weights) v *= 1e-30f;
          }
          const size_t n_out = static_cast<size_t>(height) * width * oc;
          const size_t bytes = n_out * sizeof(float);
          std::vector<float> want(n_out);
          ReferenceConv2dHwc(in.data(), height, width, ic, weights.data(),
                             bias.data(), oc, kernel, want.data());
          for (const KernelTable* table : tables) {
            std::vector<float> got(n_out + 1);
            std::memcpy(&got.back(), &guard, sizeof(guard));
            table->conv2d_hwc(in.data(), static_cast<size_t>(height),
                              static_cast<size_t>(width),
                              static_cast<size_t>(ic), weights.data(),
                              bias.data(), static_cast<size_t>(oc),
                              static_cast<size_t>(kernel), got.data());
            ASSERT_EQ(std::memcmp(got.data(), want.data(), bytes), 0)
                << table->name << " oc=" << oc << " ic=" << ic
                << " kernel=" << kernel << " h=" << height << " w=" << width
                << " profile=" << profile;
            uint32_t after = 0;
            std::memcpy(&after, &got.back(), sizeof(after));
            ASSERT_EQ(after, guard) << table->name << " wrote past out";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace kernels
}  // namespace deepeverest
