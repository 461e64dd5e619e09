#ifndef DEEPEVEREST_COMMON_SERDE_H_
#define DEEPEVEREST_COMMON_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace deepeverest {

/// \brief Append-only binary encoder into an in-memory buffer.
///
/// Fixed-width little-endian primitives plus length-prefixed blobs. The
/// format is the on-disk representation for NPI/MAI indexes and activation
/// files; see storage/file_store.h for persistence.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void WriteU8(uint8_t v) { Append(&v, 1); }
  void WriteU32(uint32_t v) { Append(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { Append(&v, sizeof(v)); }
  void WriteI32(int32_t v) { Append(&v, sizeof(v)); }
  void WriteI64(int64_t v) { Append(&v, sizeof(v)); }
  void WriteF32(float v) { Append(&v, sizeof(v)); }
  void WriteF64(double v) { Append(&v, sizeof(v)); }

  void WriteString(const std::string& s) {
    WriteU64(s.size());
    Append(s.data(), s.size());
  }

  void WriteF32Vector(const std::vector<float>& v) {
    WriteU64(v.size());
    Append(v.data(), v.size() * sizeof(float));
  }

  void WriteU32Vector(const std::vector<uint32_t>& v) {
    WriteU64(v.size());
    Append(v.data(), v.size() * sizeof(uint32_t));
  }

  void WriteU64Vector(const std::vector<uint64_t>& v) {
    WriteU64(v.size());
    Append(v.data(), v.size() * sizeof(uint64_t));
  }

  const std::vector<uint8_t>& buffer() const { return buffer_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  void Append(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    buffer_.insert(buffer_.end(), p, p + n);
  }

  std::vector<uint8_t> buffer_;
};

/// \brief Bounds-checked decoder over a byte buffer written by BinaryWriter.
///
/// Every Read* returns a Status so a truncated or corrupt file surfaces as
/// IOError instead of undefined behaviour.
class BinaryReader {
 public:
  BinaryReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit BinaryReader(const std::vector<uint8_t>& buffer)
      : BinaryReader(buffer.data(), buffer.size()) {}

  Status ReadU8(uint8_t* out) { return Fixed(out, 1); }
  Status ReadU32(uint32_t* out) { return Fixed(out, sizeof(*out)); }
  Status ReadU64(uint64_t* out) { return Fixed(out, sizeof(*out)); }
  Status ReadI32(int32_t* out) { return Fixed(out, sizeof(*out)); }
  Status ReadI64(int64_t* out) { return Fixed(out, sizeof(*out)); }
  Status ReadF32(float* out) { return Fixed(out, sizeof(*out)); }
  Status ReadF64(double* out) { return Fixed(out, sizeof(*out)); }

  Status ReadString(std::string* out);
  Status ReadF32Vector(std::vector<float>* out);
  Status ReadU32Vector(std::vector<uint32_t>* out);
  Status ReadU64Vector(std::vector<uint64_t>* out);

  /// Advances past `n` bytes without copying (skipping a framed payload
  /// that was already consumed out-of-band).
  Status Skip(uint64_t n) {
    if (n > size_ - pos_) {
      return Status::IOError("truncated buffer: cannot skip " +
                             std::to_string(n) + " bytes, have " +
                             std::to_string(size_ - pos_));
    }
    pos_ += static_cast<size_t>(n);
    return Status::OK();
  }

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  Status Fixed(void* out, size_t n) {
    if (pos_ + n > size_) {
      return Status::IOError("truncated buffer: need " + std::to_string(n) +
                             " bytes, have " + std::to_string(size_ - pos_));
    }
    // An empty vector's data() may be null, which memcpy must not get.
    if (n > 0) std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  Status ReadLength(uint64_t* len, size_t element_size);

  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

}  // namespace deepeverest

#endif  // DEEPEVEREST_COMMON_SERDE_H_
