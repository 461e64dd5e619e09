#include "persist/snapshot.h"

#include <algorithm>
#include <set>

#include "common/serde.h"
#include "persist/format.h"

namespace deepeverest {
namespace persist {

namespace {

constexpr uint32_t kManifestMagic = 0xDEE7A901;
constexpr uint32_t kManifestVersion = 1;

std::string PrefixFor(const std::string& model) {
  return "snapshot/" + model + "/";
}

std::string SegmentKeyFor(const std::string& model, int layer,
                          uint32_t generation) {
  return PrefixFor(model) + "layer_" + std::to_string(layer) + ".g" +
         std::to_string(generation) + ".seg";
}

/// Parses the generation out of a segment key ("....g<gen>.seg"), or 0.
uint32_t GenerationOf(const std::string& key) {
  const size_t dot_seg = key.rfind(".seg");
  if (dot_seg == std::string::npos) return 0;
  const size_t dot_g = key.rfind(".g", dot_seg);
  if (dot_g == std::string::npos) return 0;
  uint32_t gen = 0;
  for (size_t i = dot_g + 2; i < dot_seg; ++i) {
    if (key[i] < '0' || key[i] > '9') return 0;
    gen = gen * 10 + static_cast<uint32_t>(key[i] - '0');
  }
  return gen;
}

/// The raw segment file, checked against its manifest entry.
Result<std::vector<uint8_t>> ReadSegment(storage::FileStore* store,
                                         const SegmentInfo& seg) {
  DE_ASSIGN_OR_RETURN(std::vector<uint8_t> blob, store->Read(seg.key));
  if (blob.size() != seg.bytes || Crc32(blob) != seg.crc) {
    return Status::IOError("snapshot segment '" + seg.key +
                           "' does not match its manifest entry "
                           "(truncated or corrupt)");
  }
  return blob;
}

/// Removes each key of `keys` under the model's prefix that is neither the
/// manifest nor a segment `manifest` (nullptr: none) references.
Status RemoveUnreferenced(storage::FileStore* store, const std::string& model,
                          const SnapshotManifest* manifest,
                          const std::vector<std::string>& keys) {
  std::set<std::string> referenced = {ManifestKeyFor(model)};
  if (manifest != nullptr) {
    for (const SegmentInfo& seg : manifest->segments) {
      referenced.insert(seg.key);
    }
  }
  for (const std::string& key : keys) {
    if (key.rfind(PrefixFor(model), 0) != 0) continue;
    if (referenced.count(key) != 0) continue;
    DE_RETURN_NOT_OK(store->Remove(key));
  }
  return Status::OK();
}

Status Hit(const Failpoint& failpoint, const std::string& point) {
  if (failpoint && failpoint(point)) {
    return Status::Cancelled("failpoint: " + point);
  }
  return Status::OK();
}

}  // namespace

std::string ManifestKeyFor(const std::string& model) {
  return PrefixFor(model) + "MANIFEST";
}

Result<SnapshotManifest> ReadManifest(storage::FileStore* store,
                                      const std::string& model) {
  const std::string key = ManifestKeyFor(model);
  if (!store->Exists(key)) {
    return Status::NotFound("no snapshot manifest for model '" + model + "'");
  }
  DE_ASSIGN_OR_RETURN(std::vector<uint8_t> blob, store->Read(key));
  DE_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                      UnwrapChecksum(blob, "snapshot manifest '" + key + "'"));
  BinaryReader reader(payload);
  uint32_t magic = 0;
  uint32_t version = 0;
  DE_RETURN_NOT_OK(reader.ReadU32(&magic));
  if (magic != kManifestMagic) {
    return Status::IOError("bad snapshot manifest magic");
  }
  DE_RETURN_NOT_OK(reader.ReadU32(&version));
  if (version != kManifestVersion) {
    return Status::IOError("unsupported snapshot manifest version " +
                           std::to_string(version));
  }
  SnapshotManifest manifest;
  DE_RETURN_NOT_OK(reader.ReadU32(&manifest.generation));
  DE_RETURN_NOT_OK(reader.ReadString(&manifest.model));
  DE_RETURN_NOT_OK(reader.ReadString(&manifest.dataset));
  DE_RETURN_NOT_OK(reader.ReadU32(&manifest.dataset_size));
  DE_RETURN_NOT_OK(reader.ReadU64(&manifest.created_unix_seconds));
  uint32_t num_segments = 0;
  DE_RETURN_NOT_OK(reader.ReadU32(&num_segments));
  if (manifest.model != model) {
    return Status::IOError("snapshot manifest names model '" + manifest.model +
                           "', expected '" + model + "'");
  }
  manifest.segments.reserve(num_segments);
  for (uint32_t i = 0; i < num_segments; ++i) {
    SegmentInfo seg;
    int32_t layer = 0;
    uint8_t kind = 0;
    DE_RETURN_NOT_OK(reader.ReadI32(&layer));
    DE_RETURN_NOT_OK(reader.ReadU8(&kind));
    DE_RETURN_NOT_OK(reader.ReadString(&seg.key));
    DE_RETURN_NOT_OK(reader.ReadU64(&seg.bytes));
    DE_RETURN_NOT_OK(reader.ReadU32(&seg.crc));
    DE_RETURN_NOT_OK(reader.ReadU32(&seg.watermark));
    seg.layer = layer;
    if (kind != static_cast<uint8_t>(SegmentKind::kIndex)) {
      return Status::IOError("unknown snapshot segment kind " +
                             std::to_string(kind));
    }
    seg.kind = static_cast<SegmentKind>(kind);
    manifest.segments.push_back(std::move(seg));
  }
  return manifest;
}

Result<WrittenSnapshot> WriteSnapshot(
    storage::FileStore* store, const std::string& model,
    const std::string& dataset_name, uint32_t dataset_size,
    const std::vector<std::pair<int, const core::LayerIndex*>>& indexes,
    const SnapshotManifest* committed, uint64_t created_unix_seconds,
    const Failpoint& failpoint) {
  // Pick a generation strictly above anything on disk — committed or
  // orphaned — so new segment files never overwrite live ones. The same
  // listing drives GC below.
  DE_ASSIGN_OR_RETURN(std::vector<std::string> keys, store->ListKeys());
  uint32_t generation = committed != nullptr ? committed->generation : 0;
  for (const std::string& key : keys) {
    if (key.rfind(PrefixFor(model), 0) == 0) {
      generation = std::max(generation, GenerationOf(key));
    }
  }
  ++generation;

  WrittenSnapshot written;
  SnapshotManifest& manifest = written.manifest;
  manifest.generation = generation;
  manifest.model = model;
  manifest.dataset = dataset_name;
  manifest.dataset_size = dataset_size;
  manifest.created_unix_seconds = created_unix_seconds;

  // 1. Changed segments first, each write-temp/fsync/rename under a fresh
  // name. The current manifest never references them, so a crash here is
  // invisible.
  std::set<int> written_layers;
  for (const auto& [layer, index] : indexes) {
    BinaryWriter writer;
    index->Serialize(&writer);
    const std::vector<uint8_t> enveloped = WrapChecksum(writer.buffer());
    const std::string key = SegmentKeyFor(model, layer, generation);
    DE_RETURN_NOT_OK(store->Write(key + ".tmp", enveloped, /*sync=*/true));
    DE_RETURN_NOT_OK(
        Hit(failpoint, "seg:" + std::to_string(layer) + ":tmp_written"));
    DE_RETURN_NOT_OK(store->Rename(key + ".tmp", key));
    DE_RETURN_NOT_OK(
        Hit(failpoint, "seg:" + std::to_string(layer) + ":renamed"));

    SegmentInfo seg;
    seg.layer = layer;
    seg.kind = SegmentKind::kIndex;
    seg.key = key;
    seg.bytes = enveloped.size();
    seg.crc = Crc32(enveloped);
    seg.watermark = index->num_inputs();
    manifest.segments.push_back(std::move(seg));
    written_layers.insert(layer);
  }
  // Unchanged segments are carried as they are: nothing is rewritten.
  if (committed != nullptr) {
    for (const SegmentInfo& seg : committed->segments) {
      if (written_layers.count(seg.layer) == 0) {
        manifest.segments.push_back(seg);
      }
    }
  }
  std::stable_sort(manifest.segments.begin(), manifest.segments.end(),
                   [](const SegmentInfo& a, const SegmentInfo& b) {
                     return a.layer < b.layer;
                   });

  // 2. Manifest rename = the commit point: the new segments and every
  // per-layer watermark become visible in one atomic step.
  BinaryWriter writer;
  writer.WriteU32(kManifestMagic);
  writer.WriteU32(kManifestVersion);
  writer.WriteU32(manifest.generation);
  writer.WriteString(manifest.model);
  writer.WriteString(manifest.dataset);
  writer.WriteU32(manifest.dataset_size);
  writer.WriteU64(manifest.created_unix_seconds);
  writer.WriteU32(static_cast<uint32_t>(manifest.segments.size()));
  for (const SegmentInfo& seg : manifest.segments) {
    writer.WriteI32(seg.layer);
    writer.WriteU8(static_cast<uint8_t>(seg.kind));
    writer.WriteString(seg.key);
    writer.WriteU64(seg.bytes);
    writer.WriteU32(seg.crc);
    writer.WriteU32(seg.watermark);
  }
  const std::string manifest_key = ManifestKeyFor(model);
  const std::vector<uint8_t> manifest_blob = WrapChecksum(writer.buffer());
  DE_RETURN_NOT_OK(
      store->Write(manifest_key + ".tmp", manifest_blob, /*sync=*/true));
  DE_RETURN_NOT_OK(Hit(failpoint, "manifest:tmp_written"));
  DE_RETURN_NOT_OK(store->Rename(manifest_key + ".tmp", manifest_key));
  DE_RETURN_NOT_OK(Hit(failpoint, "manifest:renamed"));

  // 3. Whatever the new manifest no longer references is reclaimed. A crash
  // in here only leaves orphans for the next GC pass.
  DE_RETURN_NOT_OK(RemoveUnreferenced(store, model, &manifest, keys));
  DE_RETURN_NOT_OK(Hit(failpoint, "gc:done"));

  written.total_bytes = manifest_blob.size();
  for (const SegmentInfo& seg : manifest.segments) {
    written.total_bytes += seg.bytes;
  }
  return written;
}

Result<core::LayerIndex> LoadIndexSegment(storage::FileStore* store,
                                          const SegmentInfo& seg) {
  DE_ASSIGN_OR_RETURN(std::vector<uint8_t> blob, ReadSegment(store, seg));
  DE_ASSIGN_OR_RETURN(
      std::vector<uint8_t> payload,
      UnwrapChecksum(blob, "snapshot segment '" + seg.key + "'"));
  BinaryReader reader(payload);
  DE_ASSIGN_OR_RETURN(core::LayerIndex index,
                      core::LayerIndex::Deserialize(&reader));
  if (index.num_inputs() != seg.watermark) {
    return Status::IOError("snapshot segment '" + seg.key +
                           "' watermark mismatch");
  }
  return index;
}

Result<LoadedSnapshot> LoadSnapshot(storage::FileStore* store,
                                    const std::string& model) {
  LoadedSnapshot snapshot;
  DE_ASSIGN_OR_RETURN(snapshot.manifest, ReadManifest(store, model));
  DE_ASSIGN_OR_RETURN(uint64_t manifest_bytes,
                      store->SizeOf(ManifestKeyFor(model)));
  snapshot.total_bytes = manifest_bytes;
  for (const SegmentInfo& seg : snapshot.manifest.segments) {
    if (seg.kind != SegmentKind::kIndex) {
      // Forward-compatible kinds are checked and ignored, not fatal.
      DE_RETURN_NOT_OK(ReadSegment(store, seg).status());
    } else {
      DE_ASSIGN_OR_RETURN(core::LayerIndex index, LoadIndexSegment(store, seg));
      snapshot.indexes.emplace_back(seg.layer, std::move(index));
    }
    snapshot.total_bytes += seg.bytes;
  }
  return snapshot;
}

Status CollectGarbage(storage::FileStore* store, const std::string& model) {
  Result<SnapshotManifest> manifest = ReadManifest(store, model);
  DE_ASSIGN_OR_RETURN(std::vector<std::string> keys, store->ListKeys());
  return RemoveUnreferenced(store, model,
                            manifest.ok() ? &manifest.value() : nullptr, keys);
}

}  // namespace persist
}  // namespace deepeverest
