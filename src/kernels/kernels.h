#ifndef DEEPEVEREST_KERNELS_KERNELS_H_
#define DEEPEVEREST_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace deepeverest {
namespace kernels {

/// \brief The hot-loop kernel layer.
///
/// Everything on a per-candidate path — batched distance aggregation over
/// row blocks, bulk bit-unpacking and selection of NPI partition ids,
/// zero-dropping of IQA rows, and the convolution and dense layers of DNN
/// inference (conv2d_hwc) — runs through one KernelTable of plain
/// function pointers. Two tables exist: a portable scalar one and an AVX2 one
/// (compiled in its own translation unit with -mavx2 -ffp-contract=off).
/// Which table serves the process is decided exactly once, on first use,
/// from cpuid plus the DEEPEVEREST_KERNELS environment override; after that
/// the per-block call is one indirect jump, hoisted out of the
/// per-candidate loop entirely.
///
/// Bit-parity contract: for identical inputs, every entry of the AVX2 table
/// returns results bit-identical to the scalar table. The AVX2 aggregation
/// kernels keep one *row per SIMD lane* and walk columns sequentially, so
/// each row's floating-point op order matches the scalar loop exactly; FMA
/// contraction is disabled in both kernel TUs. conv2d_hwc keeps one output
/// channel per float lane and follows the per-output op order documented
/// at Conv2dHwcFn, so the register blocking only changes how many outputs
/// are in flight, not any output's sequence of ops. The seeded parity suite
/// (tests/kernels/) pins this, which is what lets the §4.6 fresh-scan
/// reference stay bit-equal to the service path under either dispatch mode.

/// Which kernel table serves a call.
enum class DispatchMode {
  kScalar,
  kAvx2,
};

/// Aggregation kinds mirror core::DistanceKind (kernels is a leaf layer and
/// must not depend on core; core/distance.cc owns the mapping).
enum class AggKind : int {
  kL1 = 0,
  kL2 = 1,
  kLInf = 2,
  kWeightedL2 = 3,
};
inline constexpr int kNumAggKinds = 4;

/// \brief One dispatchable kernel set. All function pointers are non-null in
/// both tables (entries without a profitable SIMD form point at the scalar
/// implementation).
struct KernelTable {
  /// out[r] = Agg_i |rows[r*row_stride + i] - target[i]|, the most-similar
  /// hot path. `rows` is a block of `num_rows` float rows of `n` values laid
  /// out `row_stride` floats apart (contiguous when row_stride == n).
  /// `weights` is consulted only by kWeightedL2 (must then have n entries).
  using AbsDiffAggFn = void (*)(const float* rows, size_t row_stride,
                                size_t num_rows, const float* target,
                                const double* weights, size_t n, double* out);
  /// out[r] = Agg_i rows[r*row_stride + i], the highest hot path.
  using ValueAggFn = void (*)(const float* rows, size_t row_stride,
                              size_t num_rows, const double* weights, size_t n,
                              double* out);
  /// Unpacks `count` fixed-width values starting at element `begin` from a
  /// bit-packed word array (PackedIntArray layout) into out[0..count).
  /// Bounds are the caller's job (PackedIntArray::GetMany checks once);
  /// `num_words` is asserted against the last touched word.
  using UnpackFn = void (*)(const uint64_t* words, size_t num_words, int bits,
                            size_t begin, size_t count, uint64_t* out);
  /// Fused unpack + compare: writes the offsets i in [0, count) whose packed
  /// value at element `begin + i` equals `value` to out_ids (ascending) and
  /// returns how many it wrote; out_ids must hold `count` entries. No value
  /// is materialised — this is getInputIDs over one neuron's PID row.
  /// Bounds as for UnpackFn.
  using SelectEqFn = size_t (*)(const uint64_t* words, size_t num_words,
                                int bits, size_t begin, size_t count,
                                uint64_t value, uint32_t* out_ids);
  /// Presence bitmap of a float row: bit i % 64 of words[i / 64] is set when
  /// in[i] is not +0.0f (all bits clear; -0.0f counts as present). Writes
  /// (n + 63) / 64 words, with the bits past n clear, and returns the
  /// number of set bits.
  using NonZeroMaskFn = size_t (*)(const float* in, size_t n, uint64_t* words);
  /// Copies the values of in[0..n) whose bit is set in `words` to out, in
  /// order, bit-exactly. `count` is the number of set bits and the size of
  /// `out`.
  using CompactFn = void (*)(const float* in, size_t n, const uint64_t* words,
                             size_t count, float* out);
  /// Stride-1, "same"-padded 2-D convolution of one HWC image: `in` is
  /// height x width x in_channels, `weights` is kernel x kernel x
  /// in_channels x out_channels (row-major), `bias` has out_channels
  /// entries and `out` receives height x width x out_channels. `kernel`
  /// must be odd. A dense layer is the 1x1 kernel over a 1x1 image.
  ///
  /// Op-order contract, identical in both tables, which is what makes every
  /// activation bit-identical across dispatch modes: each output starts
  /// from its bias; taps are visited in (kh, kw) row-major order, and a tap
  /// that falls outside the image is skipped, never zero-padded (a padded
  /// tap would turn a -0.0f sum into +0.0f); within a tap, input channels
  /// are walked in ascending order; each step is one float multiply
  /// followed by one float add, never fused.
  using Conv2dHwcFn = void (*)(const float* in, size_t height, size_t width,
                               size_t in_channels, const float* weights,
                               const float* bias, size_t out_channels,
                               size_t kernel, float* out);

  AbsDiffAggFn abs_diff_agg[kNumAggKinds];
  ValueAggFn value_agg[kNumAggKinds];
  UnpackFn unpack;
  SelectEqFn select_eq;
  NonZeroMaskFn nonzero_mask;
  CompactFn compact;
  Conv2dHwcFn conv2d_hwc;
  const char* name;
};

/// True when this CPU executes AVX2 (runtime cpuid check; false when the
/// AVX2 table was not compiled in, e.g. non-x86 targets).
bool Avx2Supported();

/// The table for an explicit mode. Requesting kAvx2 on a machine where
/// Avx2Supported() is false is a programming error (DE_CHECK); dispatch
/// resolution never does that — tests gate on Avx2Supported().
const KernelTable& GetKernelTable(DispatchMode mode);

/// Pure resolution logic, unit-testable: `env_value` is the raw
/// DEEPEVEREST_KERNELS value (nullptr/empty = auto). "scalar" forces the
/// scalar table; "avx2" requests AVX2 and falls back to scalar (with a
/// warning at startup) when unsupported; anything else warns and autodetects.
DispatchMode ResolveDispatchMode(const char* env_value, bool avx2_supported);

/// The mode serving this process, resolved once on first call from
/// DEEPEVEREST_KERNELS and cpuid. Stable for the process lifetime.
DispatchMode ActiveDispatchMode();

/// The process-wide active table: GetKernelTable(ActiveDispatchMode()).
const KernelTable& Active();

const char* DispatchModeName(DispatchMode mode);

}  // namespace kernels
}  // namespace deepeverest

#endif  // DEEPEVEREST_KERNELS_KERNELS_H_
