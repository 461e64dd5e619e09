#ifndef DEEPEVEREST_KERNELS_KERNELS_SCALAR_INL_H_
#define DEEPEVEREST_KERNELS_KERNELS_SCALAR_INL_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/logging.h"

/// Shared scalar kernel bodies, included by BOTH kernel translation units:
/// kernels.cc builds the scalar table from them, kernels_avx2.cc uses them
/// for row tails and for entries without a profitable SIMD form. Keeping one
/// definition is what makes the bit-parity contract trivial for tails — the
/// AVX2 table's leftover rows literally run the scalar code (both TUs are
/// compiled with -ffp-contract=off, so no FMA contraction can split them).
///
/// Floating-point op order here is the canonical one the AVX2 lanes must
/// reproduce: widen float -> double first, accumulate strictly left to
/// right, weighted terms as (w * v) * v.

namespace deepeverest {
namespace kernels {
namespace internal {

inline double RowAbsDiffL1(const float* row, const float* target, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = std::abs(static_cast<double>(row[i]) -
                              static_cast<double>(target[i]));
    sum += d;
  }
  return sum;
}

inline double RowAbsDiffL2(const float* row, const float* target, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = std::abs(static_cast<double>(row[i]) -
                              static_cast<double>(target[i]));
    sum += d * d;
  }
  return std::sqrt(sum);
}

inline double RowAbsDiffLInf(const float* row, const float* target, size_t n) {
  if (n == 0) return 0.0;
  double best = std::abs(static_cast<double>(row[0]) -
                         static_cast<double>(target[0]));
  for (size_t i = 1; i < n; ++i) {
    const double d = std::abs(static_cast<double>(row[i]) -
                              static_cast<double>(target[i]));
    best = std::max(best, d);
  }
  return best;
}

inline double RowAbsDiffWL2(const float* row, const float* target,
                            const double* weights, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = std::abs(static_cast<double>(row[i]) -
                              static_cast<double>(target[i]));
    sum += weights[i] * d * d;
  }
  return std::sqrt(sum);
}

inline double RowValuesL1(const float* row, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += static_cast<double>(row[i]);
  return sum;
}

inline double RowValuesL2(const float* row, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(row[i]);
    sum += v * v;
  }
  return std::sqrt(sum);
}

inline double RowValuesLInf(const float* row, size_t n) {
  if (n == 0) return 0.0;
  // Seeded from the first element, not 0.0: correct for all-negative rows.
  double best = static_cast<double>(row[0]);
  for (size_t i = 1; i < n; ++i) {
    best = std::max(best, static_cast<double>(row[i]));
  }
  return best;
}

inline double RowValuesWL2(const float* row, const double* weights, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(row[i]);
    sum += weights[i] * v * v;
  }
  return std::sqrt(sum);
}

/// Word-at-a-time bulk unpack: reads each packed word straight out of the
/// array (no per-element bounds checks — PackedIntArray::GetMany validated
/// the range once) and only touches word+1 when a value actually straddles.
inline void UnpackScalar(const uint64_t* words, size_t num_words, int bits,
                         size_t begin, size_t count, uint64_t* out) {
  if (count == 0) return;
  DE_CHECK_GE(bits, 1);
  DE_CHECK_LE(bits, 64);
  const uint64_t mask =
      bits >= 64 ? ~0ull : ((1ull << bits) - 1);
  size_t bit = begin * static_cast<size_t>(bits);
  DE_CHECK_LE(((begin + count) * static_cast<size_t>(bits) + 63) / 64,
              num_words);
  for (size_t i = 0; i < count; ++i, bit += static_cast<size_t>(bits)) {
    const size_t word = bit >> 6;
    const int offset = static_cast<int>(bit & 63);
    uint64_t value = words[word] >> offset;
    if (offset + bits > 64) {
      value |= words[word + 1] << (64 - offset);
    }
    out[i] = value & mask;
  }
}

/// Word-at-a-time fused select: the unpack walk of UnpackScalar with the
/// compare folded in, so the PID row is never written out. The match is
/// stored unconditionally and the cursor advanced by the compare result,
/// which keeps the loop branch-free.
inline size_t SelectEqScalar(const uint64_t* words, size_t num_words, int bits,
                             size_t begin, size_t count, uint64_t value,
                             uint32_t* out_ids) {
  if (count == 0) return 0;
  DE_CHECK_GE(bits, 1);
  DE_CHECK_LE(bits, 64);
  const uint64_t mask = bits >= 64 ? ~0ull : ((1ull << bits) - 1);
  size_t bit = begin * static_cast<size_t>(bits);
  DE_CHECK_LE(((begin + count) * static_cast<size_t>(bits) + 63) / 64,
              num_words);
  size_t found = 0;
  for (size_t i = 0; i < count; ++i, bit += static_cast<size_t>(bits)) {
    const size_t word = bit >> 6;
    const int offset = static_cast<int>(bit & 63);
    uint64_t v = words[word] >> offset;
    if (offset + bits > 64) v |= words[word + 1] << (64 - offset);
    out_ids[found] = static_cast<uint32_t>(i);
    found += static_cast<size_t>((v & mask) == value);
  }
  return found;
}

inline size_t NonZeroMaskScalar(const float* in, size_t n, uint64_t* words) {
  size_t count = 0;
  for (size_t w = 0; w * 64 < n; ++w) {
    const size_t end = std::min(n, w * 64 + 64);
    uint64_t word = 0;
    for (size_t i = w * 64; i < end; ++i) {
      uint32_t bits = 0;
      std::memcpy(&bits, in + i, sizeof(bits));
      word |= static_cast<uint64_t>(bits != 0) << (i % 64);
    }
    words[w] = word;
    count += static_cast<size_t>(__builtin_popcountll(word));
  }
  return count;
}

/// Copies the set-bit values of in[begin, n) to out; `begin` need not be
/// word-aligned. Returns how many it copied.
inline size_t CompactFromScalar(const float* in, size_t n,
                                const uint64_t* words, size_t begin,
                                float* out) {
  size_t k = 0;
  for (size_t w = begin / 64; w * 64 < n; ++w) {
    uint64_t bits = words[w];
    if (w == begin / 64) bits &= ~uint64_t{0} << (begin % 64);
    for (; bits != 0; bits &= bits - 1) {
      out[k++] = in[w * 64 + static_cast<size_t>(__builtin_ctzll(bits))];
    }
  }
  return k;
}

inline void CompactScalar(const float* in, size_t n, const uint64_t* words,
                          size_t /*count*/, float* out) {
  CompactFromScalar(in, n, words, 0, out);
}

/// One output pixel at a time, in the canonical op order (see
/// KernelTable::Conv2dHwcFn): bias, then the in-bounds taps [lo, hi) in
/// (kh, kw) row-major order, input channels ascending, one multiply then
/// one add per step.
inline void Conv2dHwcScalar(const float* in, size_t height, size_t width,
                            size_t in_channels, const float* weights,
                            const float* bias, size_t out_channels,
                            size_t kernel, float* out) {
  const size_t pad = kernel / 2;
  const size_t ic = in_channels;
  const size_t oc = out_channels;
  for (size_t h = 0; h < height; ++h) {
    const size_t kh_lo = pad > h ? pad - h : 0;
    const size_t kh_hi = std::min(kernel, height + pad - h);
    for (size_t w = 0; w < width; ++w) {
      const size_t kw_lo = pad > w ? pad - w : 0;
      const size_t kw_hi = std::min(kernel, width + pad - w);
      float* o = out + (h * width + w) * oc;
      for (size_t c = 0; c < oc; ++c) o[c] = bias[c];
      for (size_t kh = kh_lo; kh < kh_hi; ++kh) {
        for (size_t kw = kw_lo; kw < kw_hi; ++kw) {
          const float* src = in + ((h + kh - pad) * width + w + kw - pad) * ic;
          const float* tap = weights + (kh * kernel + kw) * ic * oc;
          for (size_t i = 0; i < ic; ++i) {
            const float v = src[i];
            const float* wrow = tap + i * oc;
            for (size_t c = 0; c < oc; ++c) o[c] += v * wrow[c];
          }
        }
      }
    }
  }
}

}  // namespace internal
}  // namespace kernels
}  // namespace deepeverest

#endif  // DEEPEVEREST_KERNELS_KERNELS_SCALAR_INL_H_
