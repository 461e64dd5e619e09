#ifndef DEEPEVEREST_PERSIST_SNAPSHOT_H_
#define DEEPEVEREST_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/npi.h"
#include "storage/file_store.h"

namespace deepeverest {
namespace persist {

/// What a snapshot segment holds. Today only serialized NPI/MAI index state;
/// the kind byte keeps the format open for quantized-activation segments.
enum class SegmentKind : uint8_t {
  kIndex = 0,
  kQuantizedActs = 1,
};

/// One per-layer segment as recorded in the manifest.
struct SegmentInfo {
  int layer = 0;
  SegmentKind kind = SegmentKind::kIndex;
  std::string key;         // store key of the segment file
  uint64_t bytes = 0;      // size of the (enveloped) segment file
  uint32_t crc = 0;        // crc32 of the whole segment file
  uint32_t watermark = 0;  // input ids [0, watermark) are covered
};

/// The decoded snapshot manifest: one durable, atomic commit point. The
/// per-layer watermarks advance only via a manifest rename, so an index
/// delta and its high-watermark become visible together — the transactional
/// pipeline idea from pg_incremental, done with rename instead of a
/// database transaction.
struct SnapshotManifest {
  uint32_t generation = 0;
  std::string model;
  std::string dataset;
  uint32_t dataset_size = 0;  // dataset watermark when the snapshot was cut
  uint64_t created_unix_seconds = 0;
  std::vector<SegmentInfo> segments;
};

/// A fully validated snapshot: the manifest plus every deserialized index.
struct LoadedSnapshot {
  SnapshotManifest manifest;
  std::vector<std::pair<int, core::LayerIndex>> indexes;
  uint64_t total_bytes = 0;  // manifest + segment files
};

/// Failpoint hook for crash-injection tests: invoked at named points inside
/// the writer ("seg:<layer>:tmp_written", "seg:<layer>:renamed",
/// "manifest:tmp_written", "manifest:renamed", "gc:done"); returning true
/// aborts the write immediately, leaving the on-disk state exactly as a
/// kill -9 at that point would. Production passes nothing.
using Failpoint = std::function<bool(const std::string& point)>;

/// Store key of a model's manifest: `snapshot/<model>/MANIFEST`.
std::string ManifestKeyFor(const std::string& model);

/// \brief Writes one snapshot generation crash-safely.
///
/// Segment files are written first under fresh generation-stamped names
/// (write-temp/fsync/rename each), then the manifest referencing them is
/// atomically renamed into place — the commit point. A crash anywhere
/// before that rename leaves the previous manifest (and therefore the
/// previous snapshot) fully intact; orphaned new-generation segments are
/// garbage-collected by the next successful write or load. `indexes` holds
/// (layer, index) pairs; `dataset_size` is the dataset watermark the caller
/// observed (>= every per-layer watermark). Returns the snapshot's total
/// on-disk size (manifest + segments).
Result<uint64_t> WriteSnapshot(
    storage::FileStore* store, const std::string& model,
    const std::string& dataset_name, uint32_t dataset_size,
    const std::vector<std::pair<int, const core::LayerIndex*>>& indexes,
    uint64_t created_unix_seconds, const Failpoint& failpoint = nullptr);

/// Reads and validates the model's committed manifest (envelope, magic,
/// version, model name). Returns NotFound when no snapshot has ever been
/// committed.
Result<SnapshotManifest> ReadManifest(storage::FileStore* store,
                                      const std::string& model);

/// Loads one index segment the manifest references and validates it against
/// its manifest entry: size + crc, envelope, deserialization, watermark.
/// Any failure is an error; the segment is never partially trusted.
Result<core::LayerIndex> LoadIndexSegment(storage::FileStore* store,
                                          const SegmentInfo& seg);

/// Loads and fully validates the model's snapshot: manifest envelope +
/// per-segment size/crc + index deserialization. Any failure — including a
/// single flipped bit in any file — returns an error and the caller falls
/// back to a cold rebuild; a torn write can never yield a hybrid of two
/// generations because the manifest is a single atomically-replaced file.
/// Returns NotFound when no snapshot has ever been committed.
Result<LoadedSnapshot> LoadSnapshot(storage::FileStore* store,
                                    const std::string& model);

/// Removes stray segment/temp files under `snapshot/<model>/` that the
/// current manifest does not reference (crash leftovers). Safe to run any
/// time; never touches referenced files.
Status CollectGarbage(storage::FileStore* store, const std::string& model);

}  // namespace persist
}  // namespace deepeverest

#endif  // DEEPEVEREST_PERSIST_SNAPSHOT_H_
