#include "common/bit_pack.h"

#include "kernels/kernels.h"

namespace deepeverest {

void PackedIntArray::GetMany(size_t begin, size_t count, uint64_t* out) const {
  if (count == 0) return;
  DE_CHECK_LE(begin, size_);
  DE_CHECK_LE(count, size_ - begin);
  kernels::Active().unpack(words_.data(), words_.size(), bits_per_value_,
                           begin, count, out);
}

size_t PackedIntArray::SelectEq(size_t begin, size_t count, uint64_t value,
                                uint32_t* out_ids) const {
  if (count == 0) return 0;
  DE_CHECK_LE(begin, size_);
  DE_CHECK_LE(count, size_ - begin);
  return kernels::Active().select_eq(words_.data(), words_.size(),
                                     bits_per_value_, begin, count, value,
                                     out_ids);
}

}  // namespace deepeverest
