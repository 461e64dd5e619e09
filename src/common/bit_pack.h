#ifndef DEEPEVEREST_COMMON_BIT_PACK_H_
#define DEEPEVEREST_COMMON_BIT_PACK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace deepeverest {

/// \brief Fixed-width bit-packed array of unsigned integers.
///
/// Stores `size` values of `bits_per_value` bits each, packed contiguously
/// into 64-bit words. This is the physical representation of the Neural
/// Partition Index: each (neuronID, inputID) slot holds a PID in
/// ceil(log2(nPartitions)) bits, which is where DeepEverest's storage savings
/// over full float32 materialisation come from (paper section 4.3).
class PackedIntArray {
 public:
  PackedIntArray() : size_(0), bits_per_value_(0) {}

  /// Creates an all-zero array of `size` values of `bits_per_value` bits.
  /// `bits_per_value` must be in [1, 64].
  PackedIntArray(size_t size, int bits_per_value)
      : size_(size), bits_per_value_(bits_per_value) {
    DE_CHECK_GE(bits_per_value, 1);
    DE_CHECK_LE(bits_per_value, 64);
    const size_t total_bits = size * static_cast<size_t>(bits_per_value);
    words_.assign((total_bits + 63) / 64, 0);
  }

  size_t size() const { return size_; }
  int bits_per_value() const { return bits_per_value_; }

  /// Bytes consumed by the packed payload (what gets persisted/accounted).
  size_t SizeBytes() const { return words_.size() * sizeof(uint64_t); }

  /// Returns the value at `index`.
  uint64_t Get(size_t index) const {
    DE_CHECK_LT(index, size_);
    const size_t bit = index * static_cast<size_t>(bits_per_value_);
    const size_t word = bit >> 6;
    const int offset = static_cast<int>(bit & 63);
    const uint64_t mask = MaskOf(bits_per_value_);
    uint64_t value = words_[word] >> offset;
    if (offset + bits_per_value_ > 64) {
      value |= words_[word + 1] << (64 - offset);
    }
    return value & mask;
  }

  /// Bulk read: unpacks values [begin, begin + count) into out[0..count).
  /// Bounds are checked ONCE for the whole range, then the unpack runs
  /// word-at-a-time through the active kernel table (SIMD for widths that
  /// divide a word) — this is the reader API for the NPI/quantized hot
  /// paths; single-element Get stays for writers and point lookups.
  /// Defined in bit_pack.cc so this header does not pull in the kernel layer.
  void GetMany(size_t begin, size_t count, uint64_t* out) const;

  /// Bulk select: writes the offsets i in [0, count) with
  /// Get(begin + i) == value to out_ids (ascending; room for `count`) and
  /// returns how many matched. One fused kernel pass: no value is unpacked
  /// into a buffer. Bounds are checked once, as in GetMany.
  size_t SelectEq(size_t begin, size_t count, uint64_t value,
                  uint32_t* out_ids) const;

  /// Stores `value` (must fit in bits_per_value bits) at `index`.
  void Set(size_t index, uint64_t value) {
    DE_CHECK_LT(index, size_);
    const uint64_t mask = MaskOf(bits_per_value_);
    DE_CHECK_LE(value, mask);
    const size_t bit = index * static_cast<size_t>(bits_per_value_);
    const size_t word = bit >> 6;
    const int offset = static_cast<int>(bit & 63);
    words_[word] = (words_[word] & ~(mask << offset)) | (value << offset);
    if (offset + bits_per_value_ > 64) {
      const int spill = offset + bits_per_value_ - 64;
      const uint64_t high_mask = MaskOf(spill);
      words_[word + 1] = (words_[word + 1] & ~high_mask) |
                         (value >> (bits_per_value_ - spill));
    }
  }

  /// Raw word access for serialisation.
  const std::vector<uint64_t>& words() const { return words_; }
  std::vector<uint64_t>* mutable_words() { return &words_; }

  /// Rebuilds geometry after deserialising `words`.
  void RestoreGeometry(size_t size, int bits_per_value) {
    size_ = size;
    bits_per_value_ = bits_per_value;
  }

  /// Minimum number of bits needed to represent values in [0, n).
  /// BitsFor(1) == 1 by convention (an array of zeros still needs a lane).
  static int BitsFor(uint64_t n) {
    if (n <= 2) return 1;
    int bits = 0;
    uint64_t v = n - 1;
    while (v > 0) {
      ++bits;
      v >>= 1;
    }
    return bits;
  }

 private:
  static uint64_t MaskOf(int bits) {
    return bits >= 64 ? ~0ull : ((1ull << bits) - 1);
  }

  size_t size_;
  int bits_per_value_;
  std::vector<uint64_t> words_;
};

}  // namespace deepeverest

#endif  // DEEPEVEREST_COMMON_BIT_PACK_H_
