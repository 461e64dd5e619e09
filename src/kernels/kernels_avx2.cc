// AVX2 kernel table. This translation unit is compiled with
// -mavx2 -ffp-contract=off (see CMakeLists.txt); every other file keeps the
// portable baseline, and runtime cpuid decides whether this table is ever
// used. On non-x86 targets (or compilers without -mavx2) the whole file
// degrades to the nullptr stub at the bottom.
//
// Bit-parity discipline (pinned by tests/kernels/kernels_parity_test.cc):
//  - aggregation kernels keep one ROW per 64-bit lane and walk columns in
//    ascending order, so each row's floating-point op order is exactly the
//    scalar loop's; the 4x4 transpose loads only change HOW a column is
//    gathered, not the per-row op sequence;
//  - float->double widening, subtraction, |x| (sign-bit clear), multiply,
//    add and sqrt are all identical IEEE single/double ops lane-wise;
//  - max uses compare+blend to reproduce std::max's exact operand
//    selection (vmaxpd picks the second operand on ties, which flips the
//    sign bit when -0.0 meets +0.0);
//  - row tails and non-SIMD widths run the shared scalar bodies from
//    kernels_scalar_inl.h;
//  - the convolution keeps one output per float lane and gives each lane
//    the scalar op order (bias, in-bounds taps row-major, channels
//    ascending, mul then add); channel tails are masked lanes, not scalar.
#include "kernels/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "kernels/kernels_scalar_inl.h"

namespace deepeverest {
namespace kernels {

namespace {

/// Column i of four consecutive rows, widened to one double per lane
/// (lane 0 = row 0). Used for column tails where a 4-wide load won't fit.
inline __m256d LoadColumn(const float* const* rows4, size_t i) {
  const __m128 f =
      _mm_setr_ps(rows4[0][i], rows4[1][i], rows4[2][i], rows4[3][i]);
  return _mm256_cvtps_pd(f);
}

/// Columns [i, i+4) of four consecutive rows via one 4x4 float transpose:
/// four contiguous loads + eight shuffles instead of sixteen scalar loads.
/// cols[j] holds column i+j with lane 0 = row 0, identical to LoadColumn.
inline void LoadColumns4(const float* const* rows4, size_t i,
                         __m256d cols[4]) {
  __m128 a0 = _mm_loadu_ps(rows4[0] + i);
  __m128 a1 = _mm_loadu_ps(rows4[1] + i);
  __m128 a2 = _mm_loadu_ps(rows4[2] + i);
  __m128 a3 = _mm_loadu_ps(rows4[3] + i);
  _MM_TRANSPOSE4_PS(a0, a1, a2, a3);
  cols[0] = _mm256_cvtps_pd(a0);
  cols[1] = _mm256_cvtps_pd(a1);
  cols[2] = _mm256_cvtps_pd(a2);
  cols[3] = _mm256_cvtps_pd(a3);
}

inline __m256d AbsPd(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

/// best = std::max(best, v) per lane: (best < v) ? v : best, bit-exact with
/// the scalar std::max including the signed-zero tie case.
inline __m256d MaxLikeStd(__m256d best, __m256d v) {
  const __m256d lt = _mm256_cmp_pd(best, v, _CMP_LT_OQ);
  return _mm256_blendv_pd(best, v, lt);
}

inline __m256d AddPd(__m256d a, __m256d b) { return _mm256_add_pd(a, b); }

/// Target widened to doubles once per kernel call: the per-column broadcast
/// then becomes a pure load-port vbroadcastsd instead of a cvtss2sd plus a
/// shuffle-port register broadcast — the transpose+cvt pipeline is
/// shuffle-bound, so this is a measurable win. Same value, same rounding
/// (float->double is exact), so bit-parity is unaffected.
inline std::vector<double> WidenTarget(const float* target, size_t n) {
  std::vector<double> widened(n);
  for (size_t i = 0; i < n; ++i) widened[i] = static_cast<double>(target[i]);
  return widened;
}
inline __m256d IdentityPd(__m256d v) { return v; }
inline __m256d SqrtPd(__m256d v) { return _mm256_sqrt_pd(v); }

// ---------------------------------------------------------------------------
// Batched aggregation driver. Row blocks of 8 run TWO independent
// accumulator chains (the per-row combine is a serial dependency chain, so
// independent chains are what hides its latency), each over 4 rows kept one
// per lane. Columns advance in ascending order in groups of 4 via the
// transpose loads, with a per-column epilogue for n % 4. Row tails
// (num_rows % 4) run the shared scalar bodies via `row_tail`.
//
//   term(col_vals, i) -> the per-column term (e.g. |v - t| squared)
//   combine(acc, t)   -> add or std::max-like blend
//   final(acc)        -> identity or sqrt
//   kSeedFirst        -> seed the chain from column 0's term instead of 0.0
//                        (LInf; required for all-negative value rows)
// ---------------------------------------------------------------------------

template <bool kSeedFirst, typename TermFn, typename CombineFn,
          typename FinalFn, typename RowTailFn>
inline void AggMany(const float* rows, size_t row_stride, size_t num_rows,
                    size_t n, TermFn term, CombineFn combine, FinalFn final,
                    RowTailFn row_tail, double* out) {
  size_t r = 0;
  if (n > 0) {
    const auto run_chain = [&](const float* const* rows4) {
      __m256d acc;
      size_t i;
      if (kSeedFirst) {
        acc = term(LoadColumn(rows4, 0), 0);
        i = 1;
      } else {
        acc = _mm256_setzero_pd();
        i = 0;
      }
      __m256d cols[4];
      for (; i + 4 <= n; i += 4) {
        LoadColumns4(rows4, i, cols);
        for (int j = 0; j < 4; ++j) {
          acc = combine(acc, term(cols[j], i + j));
        }
      }
      for (; i < n; ++i) {
        acc = combine(acc, term(LoadColumn(rows4, i), i));
      }
      return acc;
    };
    for (; r + 8 <= num_rows; r += 8) {
      const float* a[4] = {rows + r * row_stride,
                           rows + (r + 1) * row_stride,
                           rows + (r + 2) * row_stride,
                           rows + (r + 3) * row_stride};
      const float* b[4] = {rows + (r + 4) * row_stride,
                           rows + (r + 5) * row_stride,
                           rows + (r + 6) * row_stride,
                           rows + (r + 7) * row_stride};
      // Two interleaved chains so the combine latency of one hides behind
      // the other.
      __m256d acc_a;
      __m256d acc_b;
      size_t i;
      if (kSeedFirst) {
        acc_a = term(LoadColumn(a, 0), 0);
        acc_b = term(LoadColumn(b, 0), 0);
        i = 1;
      } else {
        acc_a = _mm256_setzero_pd();
        acc_b = _mm256_setzero_pd();
        i = 0;
      }
      __m256d ca[4];
      __m256d cb[4];
      for (; i + 4 <= n; i += 4) {
        LoadColumns4(a, i, ca);
        LoadColumns4(b, i, cb);
        for (int j = 0; j < 4; ++j) {
          acc_a = combine(acc_a, term(ca[j], i + j));
          acc_b = combine(acc_b, term(cb[j], i + j));
        }
      }
      for (; i < n; ++i) {
        acc_a = combine(acc_a, term(LoadColumn(a, i), i));
        acc_b = combine(acc_b, term(LoadColumn(b, i), i));
      }
      _mm256_storeu_pd(out + r, final(acc_a));
      _mm256_storeu_pd(out + r + 4, final(acc_b));
    }
    for (; r + 4 <= num_rows; r += 4) {
      const float* a[4] = {rows + r * row_stride,
                           rows + (r + 1) * row_stride,
                           rows + (r + 2) * row_stride,
                           rows + (r + 3) * row_stride};
      _mm256_storeu_pd(out + r, final(run_chain(a)));
    }
  }
  for (; r < num_rows; ++r) out[r] = row_tail(r);
}

// ---- abs-diff aggregations (most-similar path) ----

void AbsDiffAggL1Avx2(const float* rows, size_t row_stride, size_t num_rows,
                      const float* target, const double* /*weights*/, size_t n,
                      double* out) {
  const std::vector<double> tpd = WidenTarget(target, n);
  const double* t = tpd.data();
  AggMany<false>(
      rows, row_stride, num_rows, n,
      [t](__m256d v, size_t i) {
        return AbsPd(_mm256_sub_pd(v, _mm256_broadcast_sd(t + i)));
      },
      AddPd, IdentityPd,
      [=](size_t r) {
        return internal::RowAbsDiffL1(rows + r * row_stride, target, n);
      },
      out);
}

void AbsDiffAggL2Avx2(const float* rows, size_t row_stride, size_t num_rows,
                      const float* target, const double* /*weights*/, size_t n,
                      double* out) {
  const std::vector<double> tpd = WidenTarget(target, n);
  const double* t = tpd.data();
  AggMany<false>(
      rows, row_stride, num_rows, n,
      [t](__m256d v, size_t i) {
        const __m256d d = AbsPd(_mm256_sub_pd(v, _mm256_broadcast_sd(t + i)));
        return _mm256_mul_pd(d, d);
      },
      AddPd, SqrtPd,
      [=](size_t r) {
        return internal::RowAbsDiffL2(rows + r * row_stride, target, n);
      },
      out);
}

void AbsDiffAggLInfAvx2(const float* rows, size_t row_stride, size_t num_rows,
                        const float* target, const double* /*weights*/,
                        size_t n, double* out) {
  const std::vector<double> tpd = WidenTarget(target, n);
  const double* t = tpd.data();
  AggMany<true>(
      rows, row_stride, num_rows, n,
      [t](__m256d v, size_t i) {
        return AbsPd(_mm256_sub_pd(v, _mm256_broadcast_sd(t + i)));
      },
      MaxLikeStd, IdentityPd,
      [=](size_t r) {
        return internal::RowAbsDiffLInf(rows + r * row_stride, target, n);
      },
      out);
}

void AbsDiffAggWL2Avx2(const float* rows, size_t row_stride, size_t num_rows,
                       const float* target, const double* weights, size_t n,
                       double* out) {
  const std::vector<double> tpd = WidenTarget(target, n);
  const double* t = tpd.data();
  AggMany<false>(
      rows, row_stride, num_rows, n,
      [t, weights](__m256d v, size_t i) {
        const __m256d d = AbsPd(_mm256_sub_pd(v, _mm256_broadcast_sd(t + i)));
        const __m256d w = _mm256_broadcast_sd(weights + i);
        return _mm256_mul_pd(_mm256_mul_pd(w, d), d);
      },
      AddPd, SqrtPd,
      [=](size_t r) {
        return internal::RowAbsDiffWL2(rows + r * row_stride, target, weights,
                                       n);
      },
      out);
}

// ---- raw-value aggregations (highest path) ----

void ValueAggL1Avx2(const float* rows, size_t row_stride, size_t num_rows,
                    const double* /*weights*/, size_t n, double* out) {
  AggMany<false>(
      rows, row_stride, num_rows, n,
      [](__m256d v, size_t) { return v; }, AddPd, IdentityPd,
      [=](size_t r) { return internal::RowValuesL1(rows + r * row_stride, n); },
      out);
}

void ValueAggL2Avx2(const float* rows, size_t row_stride, size_t num_rows,
                    const double* /*weights*/, size_t n, double* out) {
  AggMany<false>(
      rows, row_stride, num_rows, n,
      [](__m256d v, size_t) { return _mm256_mul_pd(v, v); }, AddPd, SqrtPd,
      [=](size_t r) { return internal::RowValuesL2(rows + r * row_stride, n); },
      out);
}

void ValueAggLInfAvx2(const float* rows, size_t row_stride, size_t num_rows,
                      const double* /*weights*/, size_t n, double* out) {
  AggMany<true>(
      rows, row_stride, num_rows, n,
      [](__m256d v, size_t) { return v; }, MaxLikeStd, IdentityPd,
      [=](size_t r) {
        return internal::RowValuesLInf(rows + r * row_stride, n);
      },
      out);
}

void ValueAggWL2Avx2(const float* rows, size_t row_stride, size_t num_rows,
                     const double* weights, size_t n, double* out) {
  AggMany<false>(
      rows, row_stride, num_rows, n,
      [weights](__m256d v, size_t i) {
        const __m256d w = _mm256_broadcast_sd(weights + i);
        return _mm256_mul_pd(_mm256_mul_pd(w, v), v);
      },
      AddPd, SqrtPd,
      [=](size_t r) {
        return internal::RowValuesWL2(rows + r * row_stride, weights, n);
      },
      out);
}

// ---------------------------------------------------------------------------
// Bulk unpack. SIMD path for the widths that divide a 64-bit word and fit
// at least four values per word (1/2/4/8/16 — the NPI default of 16
// partitions packs at 4 bits): values never straddle a word, so each packed
// word is broadcast once and variable-shifted into 4-value groups. Other
// widths fall back to the shared word-at-a-time scalar body.
// ---------------------------------------------------------------------------

void UnpackAvx2(const uint64_t* words, size_t num_words, int bits,
                size_t begin, size_t count, uint64_t* out) {
  if (count == 0) return;
  if (bits > 16 || (64 % bits) != 0) {
    internal::UnpackScalar(words, num_words, bits, begin, count, out);
    return;
  }
  DE_CHECK_LE(((begin + count) * static_cast<size_t>(bits) + 63) / 64,
              num_words);
  const uint64_t mask = (1ull << bits) - 1;
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const size_t vals_per_word = 64 / static_cast<size_t>(bits);
  const size_t groups_per_word = vals_per_word / 4;  // >= 1 for bits <= 16

  // Per-group lane shift amounts within one word (constant across words).
  __m256i shifts[16];  // max groups_per_word is 16 (bits == 1)
  for (size_t gidx = 0; gidx < groups_per_word; ++gidx) {
    const long long base = static_cast<long long>(gidx * 4 * bits);
    shifts[gidx] =
        _mm256_setr_epi64x(base, base + bits, base + 2 * bits,
                           base + 3 * bits);
  }

  size_t produced = 0;
  size_t idx = begin;
  // Scalar prologue up to a word boundary.
  while (produced < count && (idx % vals_per_word) != 0) {
    internal::UnpackScalar(words, num_words, bits, idx, 1, out + produced);
    ++produced;
    ++idx;
  }
  // Whole words: broadcast once, shift each 4-value group into lanes.
  while (count - produced >= vals_per_word) {
    const __m256i vw = _mm256_set1_epi64x(
        static_cast<long long>(words[idx / vals_per_word]));
    for (size_t gidx = 0; gidx < groups_per_word; ++gidx) {
      const __m256i vals =
          _mm256_and_si256(_mm256_srlv_epi64(vw, shifts[gidx]), vmask);
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + produced + gidx * 4), vals);
    }
    produced += vals_per_word;
    idx += vals_per_word;
  }
  // Scalar tail.
  if (produced < count) {
    internal::UnpackScalar(words, num_words, bits, idx, count - produced,
                           out + produced);
  }
}

// ---------------------------------------------------------------------------
// Fused select over packed values, for widths up to 13 bits — including the
// widths that straddle 64-bit words (3, 5, 6, 7, ...). Eight consecutive
// elements span at most 7 + 8 * 13 bits, so one unaligned 16-byte load
// holds all of them. Each 32-bit lane is filled with the four bytes that
// start at its element's first byte (one in-lane byte shuffle of the load
// broadcast to both halves), then shifted by the element's 0..7 bit offset,
// masked, compared and movemasked. A step advances 8 * bits bits, a whole
// number of bytes, so the shuffle and the shifts are the same for every
// step and are built once per call. The matching lanes' offsets are
// compressed through a 256-entry table and stored as one 8-lane write, so
// emission is branch-free; that write stays inside out_ids because fewer
// than `i` matches precede element `i`. Wider values, and the last elements
// whose 16-byte load would read past the array, run the shared scalar body.
// ---------------------------------------------------------------------------

/// For each 8-bit match mask, the positions of its set bits in ascending
/// order, one per byte.
struct CompressTable {
  uint64_t positions[256];
};

constexpr CompressTable MakeCompressTable() {
  CompressTable table{};
  for (unsigned mask = 0; mask < 256; ++mask) {
    uint64_t packed = 0;
    int k = 0;
    for (unsigned lane = 0; lane < 8; ++lane) {
      if ((mask >> lane) & 1u) packed |= uint64_t{lane} << (8 * k++);
    }
    table.positions[mask] = packed;
  }
  return table;
}

constexpr CompressTable kCompress = MakeCompressTable();

size_t SelectEqAvx2(const uint64_t* words, size_t num_words, int bits,
                    size_t begin, size_t count, uint64_t value,
                    uint32_t* out_ids) {
  if (count == 0) return 0;
  if (bits > 13) {
    return internal::SelectEqScalar(words, num_words, bits, begin, count,
                                    value, out_ids);
  }
  DE_CHECK_GE(bits, 1);
  DE_CHECK_LE(((begin + count) * static_cast<size_t>(bits) + 63) / 64,
              num_words);
  const uint64_t mask = (1ull << bits) - 1;
  if (value > mask) return 0;  // no packed value can equal it
  const auto* bytes = reinterpret_cast<const uint8_t*>(words);
  // A step starting at element e loads bytes [(e * bits) >> 3, +16), which
  // must lie inside the array.
  const size_t num_bytes = num_words * sizeof(uint64_t);
  const size_t steppable =
      num_bytes >= 16 ? ((num_bytes - 16) * 8 + 7) / bits + 1 : 0;

  // Per-lane source bytes and bit shifts, fixed for the whole call.
  const size_t first_bit = begin * static_cast<size_t>(bits);
  alignas(32) uint8_t shuffle[32];
  alignas(32) uint32_t shift[8];
  for (int lane = 0; lane < 8; ++lane) {
    const size_t bit = (first_bit & 7) + static_cast<size_t>(lane * bits);
    for (int b = 0; b < 4; ++b) {
      shuffle[4 * lane + b] = static_cast<uint8_t>((bit >> 3) + b);
    }
    shift[lane] = static_cast<uint32_t>(bit & 7);
  }
  const __m256i vshuffle =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(shuffle));
  const __m256i vshift =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(shift));
  const __m256i vmask = _mm256_set1_epi32(static_cast<int>(mask));
  const __m256i vvalue = _mm256_set1_epi32(static_cast<int>(value));

  const uint8_t* src = bytes + (first_bit >> 3);
  const size_t step_bytes = static_cast<size_t>(bits);  // 8 * bits bits
  size_t found = 0;
  size_t i = 0;
  for (; i + 8 <= count && begin + i < steppable; i += 8, src += step_bytes) {
    const __m256i window = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src)));
    const __m256i vals = _mm256_and_si256(
        _mm256_srlv_epi32(_mm256_shuffle_epi8(window, vshuffle), vshift),
        vmask);
    const unsigned hits = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(vals, vvalue))));
    const __m256i lanes = _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(
        static_cast<long long>(kCompress.positions[hits])));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out_ids + found),
        _mm256_add_epi32(lanes, _mm256_set1_epi32(static_cast<int>(i))));
    found += static_cast<size_t>(__builtin_popcount(hits));
  }
  if (i < count) {
    const size_t tail = internal::SelectEqScalar(
        words, num_words, bits, begin + i, count - i, value, out_ids + found);
    for (size_t j = found; j < found + tail; ++j) {
      out_ids[j] += static_cast<uint32_t>(i);
    }
    found += tail;
  }
  return found;
}

// ---------------------------------------------------------------------------
// Zero-dropping of IQA rows. The mask compares 8 lanes' bits with zero per
// step (so -0.0f stays present) and movemasks them into the word. The
// compaction permutes each group of 8 so its present lanes come first,
// through the same 256-entry table as the select, and stores all 8 lanes;
// once fewer than 8 slots of `out` remain, the shared scalar body copies the
// rest. Permutes move bits, so values are copied exactly.
// ---------------------------------------------------------------------------

size_t NonZeroMaskAvx2(const float* in, size_t n, uint64_t* words) {
  size_t count = 0;
  size_t w = 0;
  for (; (w + 1) * 64 <= n; ++w) {
    uint64_t word = 0;
    for (int j = 0; j < 8; ++j) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(in + w * 64 + 8 * j));
      const unsigned zero_lanes = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_castsi256_ps(
              _mm256_cmpeq_epi32(v, _mm256_setzero_si256()))));
      word |= static_cast<uint64_t>(~zero_lanes & 0xffu) << (8 * j);
    }
    words[w] = word;
    count += static_cast<size_t>(__builtin_popcountll(word));
  }
  if (w * 64 < n) {
    count += internal::NonZeroMaskScalar(in + w * 64, n - w * 64, words + w);
  }
  return count;
}

void CompactAvx2(const float* in, size_t n, const uint64_t* words,
                 size_t count, float* out) {
  size_t k = 0;
  size_t i = 0;
  for (; i + 8 <= n && k + 8 <= count; i += 8) {
    const unsigned mask =
        static_cast<unsigned>(words[i / 64] >> (i % 64)) & 0xffu;
    const __m256i order = _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(
        static_cast<long long>(kCompress.positions[mask])));
    _mm256_storeu_ps(out + k,
                     _mm256_permutevar8x32_ps(_mm256_loadu_ps(in + i), order));
    k += static_cast<size_t>(__builtin_popcount(mask));
  }
  internal::CompactFromScalar(in, n, words, i, out + k);
}

// ---------------------------------------------------------------------------
// Convolution. Output channels are cut into chunks of up to kConvMaxVecs
// 8-lane vectors; the last vector of a chunk is masked when the chunk ends
// in the middle of one (the masked-out weight and bias lanes load as zero and
// are never stored). Within a chunk, a block of P output pixels x NV vectors
// of accumulators stays in registers for the whole reduction, and every
// weight row is loaded once per block and reused by all P pixels.
//
// One lane is one output, and each lane runs exactly the scalar op order:
// bias, in-bounds taps in (kh, kw) row-major order, input channels
// ascending, _mm256_mul_ps then _mm256_add_ps (no FMA: the TU is built
// with -ffp-contract=off and never calls an fmadd intrinsic). A block needs
// its pixels to share the in-bounds tap ranges, so the image is cut into
// regions that do: each of the `pad` border rows (and columns) on either
// side alone, and the interior rows (columns) together. Each region's
// pixels run in row-major order in blocks of P, and the last r < P pixels
// in one block of r.
// ---------------------------------------------------------------------------

constexpr int kConvMaxVecs = 4;

/// Pixels per block for NV accumulator vectors per pixel: P x NV
/// accumulators plus NV weight vectors and one broadcast fit the 16 ymm
/// registers (NV = 4 leaves the weights as memory operands).
template <int NV>
constexpr int ConvBlockPixels() {
  return NV == 1 ? 8 : NV == 2 ? 6 : NV == 3 ? 4 : 3;
}

struct ConvGeometry {
  size_t in_row;      // input floats per image row: width * ic
  size_t w_kh;        // weight floats per kh step: kernel * ic * oc
  size_t oc;          // row stride of the weights and of the output
  size_t span;        // (kw_hi - kw_lo) * ic: one kh step's reduction length
  size_t kh_count;    // kh_hi - kh_lo
  __m256i tail_mask;  // lanes of the chunk's last vector that are live
};

/// Outputs of P pixels for one chunk of NV vectors. src[p] points at pixel
/// p's input for its first in-bounds tap (kh_lo, kw_lo) and `weights` at
/// that tap's first weight row (already offset to the chunk's channel).
/// For one kh, taps kw_lo .. kw_hi - 1 read one contiguous run of `span`
/// input floats, and their weight rows are consecutive too, so (kw, i)
/// ascending is one walk of j over that run. The pixel and vector loops are
/// unrolled by pragma so that acc[][] and wv[] live in registers.
template <int NV, int P>
inline void ConvBlock(const ConvGeometry& g, const __m256 bias[NV],
                      const float* const src[P], const float* weights,
                      float* const dst[P]) {
  __m256 acc[P][NV];
#pragma GCC unroll 16
  for (int p = 0; p < P; ++p) {
#pragma GCC unroll 4
    for (int k = 0; k < NV; ++k) acc[p][k] = bias[k];
  }
  for (size_t kh = 0; kh < g.kh_count; ++kh) {
    const float* px[P];
#pragma GCC unroll 16
    for (int p = 0; p < P; ++p) px[p] = src[p] + kh * g.in_row;
    const float* wrow = weights + kh * g.w_kh;
    for (size_t j = 0; j < g.span; ++j, wrow += g.oc) {
      __m256 wv[NV];
#pragma GCC unroll 4
      for (int k = 0; k + 1 < NV; ++k) wv[k] = _mm256_loadu_ps(wrow + 8 * k);
      wv[NV - 1] = _mm256_maskload_ps(wrow + 8 * (NV - 1), g.tail_mask);
#pragma GCC unroll 16
      for (int p = 0; p < P; ++p) {
        const __m256 v = _mm256_broadcast_ss(px[p] + j);
#pragma GCC unroll 4
        for (int k = 0; k < NV; ++k) {
          acc[p][k] = _mm256_add_ps(acc[p][k], _mm256_mul_ps(v, wv[k]));
        }
      }
    }
  }
#pragma GCC unroll 16
  for (int p = 0; p < P; ++p) {
#pragma GCC unroll 4
    for (int k = 0; k + 1 < NV; ++k) {
      _mm256_storeu_ps(dst[p] + 8 * k, acc[p][k]);
    }
    _mm256_maskstore_ps(dst[p] + 8 * (NV - 1), g.tail_mask, acc[p][NV - 1]);
  }
}

/// ConvBlock over the first n (1 <= n <= P) pixels of src / dst.
template <int NV, int P>
inline void ConvBlockUpTo(int n, const ConvGeometry& g, const __m256 bias[NV],
                          const float* const src[], const float* weights,
                          float* const dst[]) {
  if constexpr (P > 1) {
    if (n < P) {
      ConvBlockUpTo<NV, P - 1>(n, g, bias, src, weights, dst);
      return;
    }
  }
  ConvBlock<NV, P>(g, bias, src, weights, dst);
}

/// The whole image for one chunk of NV vectors, the last of which has
/// `tail` (1..8) live lanes; `weights`, `bias` and `out` are already offset
/// to the chunk's first channel. No vector crosses this function's
/// boundary, so the compiler clears the upper ymm halves on return and the
/// SSE code of the callers pays no AVX-SSE transition.
template <int NV>
void ConvChunk(const float* in, size_t height, size_t width, size_t ic,
               const float* weights, const float* bias, size_t oc,
               size_t kernel, int tail, float* out) {
  constexpr int P = ConvBlockPixels<NV>();
  const __m256i tail_mask = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(tail), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  __m256 bv[NV];
  for (int k = 0; k + 1 < NV; ++k) bv[k] = _mm256_loadu_ps(bias + 8 * k);
  bv[NV - 1] = _mm256_maskload_ps(bias + 8 * (NV - 1), tail_mask);
  const size_t pad = kernel / 2;
  // Splits [0, n) into runs whose pixels share their in-bounds tap range
  // [lo, hi) along that axis: the border positions one by one, the
  // interior in one run. `fn(begin, end, lo, hi)` gets each run.
  const auto for_each_run = [pad, kernel](size_t n, auto fn) {
    const auto tap_lo = [pad](size_t x) { return pad > x ? pad - x : 0; };
    const auto tap_hi = [pad, kernel, n](size_t x) {
      return std::min(kernel, n + pad - x);
    };
    size_t x = 0;
    while (x < n) {
      size_t end = x + 1;
      while (end < n && tap_lo(end) == tap_lo(x) && tap_hi(end) == tap_hi(x)) {
        ++end;
      }
      fn(x, end, tap_lo(x), tap_hi(x));
      x = end;
    }
  };
  for_each_run(height, [&](size_t h0, size_t h1, size_t kh_lo, size_t kh_hi) {
    for_each_run(width, [&](size_t w0, size_t w1, size_t kw_lo, size_t kw_hi) {
      ConvGeometry g;
      g.in_row = width * ic;
      g.w_kh = kernel * ic * oc;
      g.oc = oc;
      g.span = (kw_hi - kw_lo) * ic;
      g.kh_count = kh_hi - kh_lo;
      g.tail_mask = tail_mask;
      const float* wstart = weights + (kh_lo * kernel + kw_lo) * ic * oc;
      const size_t cols = w1 - w0;
      const size_t count = (h1 - h0) * cols;
      for (size_t first = 0; first < count; first += P) {
        const int n = static_cast<int>(std::min<size_t>(P, count - first));
        const float* src[P];
        float* dst[P];
        for (int p = 0; p < n; ++p) {
          const size_t h = h0 + (first + p) / cols;
          const size_t w = w0 + (first + p) % cols;
          src[p] = in + ((h + kh_lo - pad) * width + w + kw_lo - pad) * ic;
          dst[p] = out + (h * width + w) * oc;
        }
        ConvBlockUpTo<NV, P>(n, g, bv, src, wstart, dst);
      }
    });
  });
}

void Conv2dHwcAvx2(const float* in, size_t height, size_t width,
                   size_t in_channels, const float* weights, const float* bias,
                   size_t out_channels, size_t kernel, float* out) {
  using ChunkFn = void (*)(const float*, size_t, size_t, size_t, const float*,
                           const float*, size_t, size_t, int, float*);
  constexpr ChunkFn kChunkFns[kConvMaxVecs] = {ConvChunk<1>, ConvChunk<2>,
                                               ConvChunk<3>, ConvChunk<4>};
  const size_t chunk = 8 * kConvMaxVecs;
  for (size_t c0 = 0; c0 < out_channels; c0 += chunk) {
    const size_t live = std::min(chunk, out_channels - c0);
    const size_t nv = (live + 7) / 8;
    kChunkFns[nv - 1](in, height, width, in_channels, weights + c0, bias + c0,
                      out_channels, kernel,
                      static_cast<int>(live - 8 * (nv - 1)), out + c0);
  }
}

constexpr KernelTable kAvx2Table = {
    {AbsDiffAggL1Avx2, AbsDiffAggL2Avx2, AbsDiffAggLInfAvx2,
     AbsDiffAggWL2Avx2},
    {ValueAggL1Avx2, ValueAggL2Avx2, ValueAggLInfAvx2, ValueAggWL2Avx2},
    UnpackAvx2,
    SelectEqAvx2,
    NonZeroMaskAvx2,
    CompactAvx2,
    Conv2dHwcAvx2,
    "avx2",
};

}  // namespace

const KernelTable* GetAvx2KernelTableOrNull() { return &kAvx2Table; }

}  // namespace kernels
}  // namespace deepeverest

#else  // !defined(__AVX2__)

namespace deepeverest {
namespace kernels {

const KernelTable* GetAvx2KernelTableOrNull() { return nullptr; }

}  // namespace kernels
}  // namespace deepeverest

#endif  // defined(__AVX2__)
