#ifndef DEEPEVEREST_STORAGE_FILE_STORE_H_
#define DEEPEVEREST_STORAGE_FILE_STORE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace deepeverest {
namespace storage {

/// \brief A flat key -> blob store backed by files under a root directory.
///
/// All on-disk artifacts (NPI/MAI indexes, materialised activations, cached
/// layers) live in a FileStore so storage consumption can be measured
/// exactly; TotalBytes() is what the experiments report as "storage".
/// Keys may contain '/' to create subdirectories.
///
/// Thread-safety: concurrent Read/Write/Exists/SizeOf calls are safe as
/// long as no two writers target the same key at once (IndexManager's
/// per-layer build mutex guarantees that for index keys). Traffic counters
/// are atomic. Moving a store concurrently with use is not supported.
class FileStore {
 public:
  /// Creates (if needed) and opens the store rooted at `root`.
  static Result<FileStore> Open(const std::string& root);

  FileStore(FileStore&& other) noexcept
      : root_(std::move(other.root_)),
        bytes_written_(other.bytes_written_.load()),
        bytes_read_(other.bytes_read_.load()) {}
  FileStore& operator=(FileStore&& other) noexcept {
    root_ = std::move(other.root_);
    bytes_written_.store(other.bytes_written_.load());
    bytes_read_.store(other.bytes_read_.load());
    return *this;
  }
  FileStore(const FileStore&) = delete;
  FileStore& operator=(const FileStore&) = delete;

  const std::string& root() const { return root_; }

  /// Writes (replacing) `key` with `data`. When `sync` is true the data is
  /// flushed to the device before returning (the paper force-writes when
  /// timing persistence, Figure 10).
  Status Write(const std::string& key, const std::vector<uint8_t>& data,
               bool sync = false);

  /// Appends `data` to `key`, creating it if absent. When `sync` is true the
  /// appended bytes are flushed to the device before returning. A crash mid-
  /// append can leave a torn tail; readers of append-only logs must frame and
  /// checksum their records (see persist::IngestLog).
  Status Append(const std::string& key, const std::vector<uint8_t>& data,
                bool sync = false);

  /// Atomically renames `from` to `to` (replacing `to` if present) and fsyncs
  /// the destination's parent directory so the rename itself is durable.
  Status Rename(const std::string& from, const std::string& to);

  Result<std::vector<uint8_t>> Read(const std::string& key) const;

  bool Exists(const std::string& key) const;

  /// Removes `key`; OK if it does not exist.
  Status Remove(const std::string& key);

  /// Size in bytes of one key, or NotFound.
  Result<uint64_t> SizeOf(const std::string& key) const;

  /// Total bytes across every key in the store.
  Result<uint64_t> TotalBytes() const;

  /// All keys currently present, relative to the root (sorted).
  Result<std::vector<std::string>> ListKeys() const;

  /// Removes every key (used between experiments).
  Status Clear();

  /// Traffic counters since Open (or ResetTraffic): total payload bytes
  /// moved through Write()/Read(). The benchmark harness uses these to
  /// model I/O time on a reference storage device.
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t bytes_read() const { return bytes_read_; }
  void ResetTraffic() {
    bytes_written_ = 0;
    bytes_read_ = 0;
  }

 private:
  explicit FileStore(std::string root) : root_(std::move(root)) {}

  std::string PathFor(const std::string& key) const;

  std::string root_;
  std::atomic<uint64_t> bytes_written_{0};
  mutable std::atomic<uint64_t> bytes_read_{0};
};

/// \brief Creates a unique empty temporary directory for a store/workspace,
/// under $TMPDIR (or /tmp). `tag` is embedded in the name for debuggability.
Result<std::string> MakeTempDir(const std::string& tag);

}  // namespace storage
}  // namespace deepeverest

#endif  // DEEPEVEREST_STORAGE_FILE_STORE_H_
