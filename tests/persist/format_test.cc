// Crc32 runs slicing-by-8 with a bytewise tail; it must equal the bitwise
// definition of CRC-32 at every alignment, length and seed, or every
// committed checksum stops matching.
#include "persist/format.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace deepeverest {
namespace persist {
namespace {

/// CRC-32 (reflected 0xEDB88320) one bit at a time: the definition.
uint32_t BitwiseCrc32(const uint8_t* data, size_t size, uint32_t seed) {
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(FormatTest, Crc32CheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check.data()),
                  check.size()),
            0xCBF43926u);
}

TEST(FormatTest, Crc32MatchesBitwiseAtEveryOffsetLengthAndSeed) {
  Rng rng(17);
  std::vector<uint8_t> buffer(8 + 300);
  for (uint8_t& byte : buffer) {
    byte = static_cast<uint8_t>(rng.NextUint64());
  }
  for (uint32_t seed : {0u, 0x12345678u}) {
    for (size_t offset = 0; offset <= 8; ++offset) {
      for (size_t length = 0; length <= 300; ++length) {
        const uint8_t* data = buffer.data() + offset;
        ASSERT_EQ(Crc32(data, length, seed),
                  BitwiseCrc32(data, length, seed))
            << "seed " << seed << " offset " << offset << " length "
            << length;
      }
    }
  }
}

TEST(FormatTest, Crc32ChainsAcrossSplits) {
  // Crc32(b, seed = Crc32(a)) == Crc32(a ++ b): the seed carries state.
  std::vector<uint8_t> data(100);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  const uint32_t whole = Crc32(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t head = Crc32(data.data(), split);
    EXPECT_EQ(Crc32(data.data() + split, data.size() - split, head), whole)
        << "split " << split;
  }
}

TEST(FormatTest, EnvelopeRoundTripsAndRejectsAFlippedByte) {
  std::vector<uint8_t> payload(37);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i);
  }
  std::vector<uint8_t> blob = WrapChecksum(payload);
  auto unwrapped = UnwrapChecksum(blob, "blob");
  ASSERT_TRUE(unwrapped.ok()) << unwrapped.status().ToString();
  EXPECT_EQ(*unwrapped, payload);
  blob.back() ^= 0x01;
  EXPECT_FALSE(UnwrapChecksum(blob, "blob").ok());
}

}  // namespace
}  // namespace persist
}  // namespace deepeverest
