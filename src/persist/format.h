#ifndef DEEPEVEREST_PERSIST_FORMAT_H_
#define DEEPEVEREST_PERSIST_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace deepeverest {
namespace persist {

/// CRC-32 (IEEE 802.3 polynomial, reflected). Deterministic across platforms;
/// used to detect torn writes and bit rot in every persisted artifact.
uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed = 0);

inline uint32_t Crc32(const std::vector<uint8_t>& data, uint32_t seed = 0) {
  return Crc32(data.data(), data.size(), seed);
}

/// \brief Checksum envelope for persisted blobs.
///
/// Layout: u32 magic | u64 payload_size | u32 crc32(payload) | payload.
/// Every blob the persistence tier writes (snapshot segments, the snapshot
/// manifest) is wrapped so a load can distinguish "valid", "truncated", and
/// "corrupt" instead of deserializing garbage.
constexpr uint32_t kEnvelopeMagic = 0xDE5EA1EDu;

std::vector<uint8_t> WrapChecksum(const std::vector<uint8_t>& payload);

/// Validates the envelope and returns the payload, or IOError with a
/// human-readable reason (`what` names the artifact in the message).
Result<std::vector<uint8_t>> UnwrapChecksum(const std::vector<uint8_t>& blob,
                                            const std::string& what);

}  // namespace persist
}  // namespace deepeverest

#endif  // DEEPEVEREST_PERSIST_FORMAT_H_
