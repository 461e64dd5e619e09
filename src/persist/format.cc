#include "persist/format.h"

#include <array>

#include "common/serde.h"

namespace deepeverest {
namespace persist {

namespace {

/// Slicing-by-8 tables: tables[0] is the bytewise table; tables[k][b] is the
/// CRC of byte b followed by k zero bytes, so eight bytes fold in one step.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

/// Little-endian 32-bit load at any alignment (one mov on x86/ARM64).
uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed) {
  static const CrcTables t = MakeCrcTables();
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const uint32_t lo = LoadLe32(data) ^ crc;
    const uint32_t hi = LoadLe32(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> WrapChecksum(const std::vector<uint8_t>& payload) {
  BinaryWriter writer;
  writer.WriteU32(kEnvelopeMagic);
  writer.WriteU64(payload.size());
  writer.WriteU32(Crc32(payload));
  std::vector<uint8_t> out = writer.TakeBuffer();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Result<std::vector<uint8_t>> UnwrapChecksum(const std::vector<uint8_t>& blob,
                                            const std::string& what) {
  BinaryReader reader(blob);
  uint32_t magic = 0;
  uint64_t payload_size = 0;
  uint32_t crc = 0;
  if (!reader.ReadU32(&magic).ok() || magic != kEnvelopeMagic) {
    return Status::IOError(what + ": bad envelope magic (not written by this "
                           "version, or corrupt)");
  }
  DE_RETURN_NOT_OK(reader.ReadU64(&payload_size));
  DE_RETURN_NOT_OK(reader.ReadU32(&crc));
  if (reader.remaining() < payload_size) {
    return Status::IOError(what + ": truncated (" +
                           std::to_string(reader.remaining()) + " of " +
                           std::to_string(payload_size) + " payload bytes)");
  }
  std::vector<uint8_t> payload(blob.end() - reader.remaining(),
                               blob.end() - reader.remaining() +
                                   static_cast<ptrdiff_t>(payload_size));
  const uint32_t actual = Crc32(payload);
  if (actual != crc) {
    return Status::IOError(what + ": checksum mismatch (stored " +
                           std::to_string(crc) + ", computed " +
                           std::to_string(actual) + ")");
  }
  return payload;
}

}  // namespace persist
}  // namespace deepeverest
