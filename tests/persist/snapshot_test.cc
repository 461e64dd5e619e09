// Crash- and corruption-injection tests for the snapshot tier: a kill at
// ANY point inside the writer must leave a store that loads as the old or
// the new snapshot, never a hybrid; and a single flipped bit anywhere must
// fail the load (so recovery falls back to a rebuild instead of serving
// silently wrong indexes).
#include "persist/snapshot.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "persist/format.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace persist {
namespace {

using testing_util::TempDir;

storage::LayerActivationMatrix MakeActs(uint32_t num_inputs,
                                        uint64_t num_neurons, uint64_t seed) {
  Rng rng(seed);
  storage::LayerActivationMatrix acts;
  acts.num_inputs = num_inputs;
  acts.num_neurons = num_neurons;
  acts.values.resize(static_cast<size_t>(num_inputs) * num_neurons);
  for (float& v : acts.values) v = static_cast<float>(rng.NextGaussian());
  return acts;
}

core::LayerIndex BuildIndex(uint32_t num_inputs, uint64_t seed) {
  auto index = core::LayerIndex::Build(MakeActs(num_inputs, 6, seed),
                                       core::LayerIndexConfig{4, 0.25});
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(index.value());
}

/// Writes one snapshot holding layers {1, 2} built over `num_inputs` rows,
/// carrying nothing.
Status WriteState(storage::FileStore* store, uint32_t num_inputs,
                  const Failpoint& failpoint = nullptr) {
  const core::LayerIndex a = BuildIndex(num_inputs, 7);
  const core::LayerIndex b = BuildIndex(num_inputs, 9);
  return WriteSnapshot(store, "m", "d", num_inputs, {{1, &a}, {2, &b}},
                       /*committed=*/nullptr, /*created_unix_seconds=*/1234,
                       failpoint)
      .status();
}

/// Commits state B over the committed state A (WriteState at 20 rows):
/// layer 2 is rebuilt over 30 rows and written, layer 1 is carried.
Status WriteCarriedState(storage::FileStore* store,
                         const Failpoint& failpoint = nullptr) {
  DE_ASSIGN_OR_RETURN(SnapshotManifest committed, ReadManifest(store, "m"));
  const core::LayerIndex b = BuildIndex(30, 11);
  return WriteSnapshot(store, "m", "d", 30, {{2, &b}}, &committed,
                       /*created_unix_seconds=*/1235, failpoint)
      .status();
}

TEST(SnapshotTest, RoundTrip) {
  TempDir dir("snap");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DE_ASSERT_OK(WriteState(&store.value(), 20));

  auto loaded = LoadSnapshot(&store.value(), "m");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->manifest.model, "m");
  EXPECT_EQ(loaded->manifest.dataset, "d");
  EXPECT_EQ(loaded->manifest.dataset_size, 20u);
  EXPECT_EQ(loaded->manifest.created_unix_seconds, 1234u);
  ASSERT_EQ(loaded->indexes.size(), 2u);
  for (const auto& [layer, index] : loaded->indexes) {
    EXPECT_TRUE(layer == 1 || layer == 2);
    EXPECT_EQ(index.num_inputs(), 20u);
  }
  EXPECT_GT(loaded->total_bytes, 0u);
}

TEST(SnapshotTest, MissingSnapshotIsNotFound) {
  TempDir dir("snap");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  auto loaded = LoadSnapshot(&store.value(), "m");
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

/// Asserts the loaded snapshot is EXACTLY state `20` or state `30`: one
/// generation throughout, every watermark equal to the manifest's size.
void ExpectOldOrNew(storage::FileStore* store) {
  auto loaded = LoadSnapshot(store, "m");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const uint32_t size = loaded->manifest.dataset_size;
  EXPECT_TRUE(size == 20u || size == 30u) << "hybrid dataset size " << size;
  ASSERT_EQ(loaded->indexes.size(), 2u);
  for (const SegmentInfo& seg : loaded->manifest.segments) {
    EXPECT_EQ(seg.watermark, size) << seg.key;
    // Every referenced segment carries the manifest's generation stamp.
    EXPECT_NE(seg.key.find(".g" + std::to_string(loaded->manifest.generation) +
                           ".seg"),
              std::string::npos)
        << seg.key << " not from generation " << loaded->manifest.generation;
  }
  for (const auto& [layer, index] : loaded->indexes) {
    (void)layer;
    EXPECT_EQ(index.num_inputs(), size);
  }
}

TEST(SnapshotTest, KillPointSweepYieldsOldOrNewNeverHybrid) {
  // Enumerate every failpoint a clean old->new overwrite passes through.
  std::vector<std::string> points;
  {
    TempDir dir("snap-enum");
    auto store = storage::FileStore::Open(dir.path());
    ASSERT_TRUE(store.ok());
    DE_ASSERT_OK(WriteState(&store.value(), 20));
    DE_ASSERT_OK(WriteState(&store.value(), 30, [&](const std::string& p) {
      points.push_back(p);
      return false;
    }));
  }
  ASSERT_GE(points.size(), 6u);  // 2 per segment + 2 manifest + gc

  for (const std::string& point : points) {
    SCOPED_TRACE("kill at " + point);
    TempDir dir("snap-kill");
    auto store = storage::FileStore::Open(dir.path());
    ASSERT_TRUE(store.ok());
    DE_ASSERT_OK(WriteState(&store.value(), 20));

    const Status aborted =
        WriteState(&store.value(), 30,
                   [&](const std::string& p) { return p == point; });
    EXPECT_EQ(aborted.code(), StatusCode::kCancelled);

    // The store must load as exactly one committed state.
    ExpectOldOrNew(&store.value());

    // And a retry must commit the new state cleanly, reclaiming every
    // orphan the aborted attempt left behind.
    DE_ASSERT_OK(WriteState(&store.value(), 30));
    auto loaded = LoadSnapshot(&store.value(), "m");
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->manifest.dataset_size, 30u);
    auto keys = store->ListKeys();
    ASSERT_TRUE(keys.ok());
    std::set<std::string> referenced = {ManifestKeyFor("m")};
    for (const SegmentInfo& seg : loaded->manifest.segments) {
      referenced.insert(seg.key);
    }
    for (const std::string& key : *keys) {
      if (key.rfind("snapshot/m/", 0) == 0) {
        EXPECT_TRUE(referenced.count(key)) << "orphan survived GC: " << key;
      }
    }
  }
}

/// Asserts the store loads as EXACTLY state A (both layers at 20 rows from
/// generation 1) or state B (layer 1 still A's `.g1` segment, layer 2 at 30
/// rows from the manifest's own generation). Returns the dataset size.
uint32_t ExpectAOrCarriedB(storage::FileStore* store) {
  auto loaded = LoadSnapshot(store, "m");
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  if (!loaded.ok()) return 0;
  const SnapshotManifest& manifest = loaded->manifest;
  const bool is_b = manifest.dataset_size == 30u;
  EXPECT_TRUE(is_b || manifest.dataset_size == 20u)
      << "hybrid dataset size " << manifest.dataset_size;
  EXPECT_EQ(manifest.generation == 1u, !is_b);
  EXPECT_EQ(manifest.created_unix_seconds, is_b ? 1235u : 1234u);
  EXPECT_EQ(loaded->indexes.size(), 2u);
  for (const SegmentInfo& seg : manifest.segments) {
    const bool rewritten = is_b && seg.layer == 2;
    const uint32_t generation = rewritten ? manifest.generation : 1u;
    EXPECT_NE(seg.key.find(".g" + std::to_string(generation) + ".seg"),
              std::string::npos)
        << seg.key << " not from generation " << generation;
    EXPECT_EQ(seg.watermark, rewritten ? 30u : 20u) << seg.key;
  }
  for (const auto& [layer, index] : loaded->indexes) {
    EXPECT_EQ(index.num_inputs(), is_b && layer == 2 ? 30u : 20u);
  }
  return manifest.dataset_size;
}

TEST(SnapshotTest, CarriedSegmentKeepsItsKeyAndBytes) {
  TempDir dir("snap-carry");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DE_ASSERT_OK(WriteState(&store.value(), 20));
  auto a = ReadManifest(&store.value(), "m");
  ASSERT_TRUE(a.ok());
  const uint64_t written_before = store->bytes_written();
  DE_ASSERT_OK(WriteCarriedState(&store.value()));
  auto b = ReadManifest(&store.value(), "m");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(ExpectAOrCarriedB(&store.value()), 30u);
  // Layer 1's entry is A's, field for field, and was not rewritten: the
  // commit wrote layer 2's segment and the manifest, nothing else.
  ASSERT_EQ(b->segments.size(), 2u);
  const SegmentInfo& carried = b->segments[0];
  const SegmentInfo& original = a->segments[0];
  EXPECT_EQ(carried.layer, 1);
  EXPECT_EQ(carried.key, original.key);
  EXPECT_EQ(carried.bytes, original.bytes);
  EXPECT_EQ(carried.crc, original.crc);
  EXPECT_EQ(carried.watermark, original.watermark);
  auto manifest_bytes = store->SizeOf(ManifestKeyFor("m"));
  ASSERT_TRUE(manifest_bytes.ok());
  EXPECT_EQ(store->bytes_written() - written_before,
            b->segments[1].bytes + *manifest_bytes);
  // GC removed A's layer-2 segment only.
  EXPECT_TRUE(store->Exists(original.key));
  EXPECT_FALSE(store->Exists(a->segments[1].key));
}

TEST(SnapshotTest, KillPointSweepWithCarriedSegmentYieldsAOrB) {
  // Enumerate every failpoint the A -> B commit passes through.
  std::vector<std::string> points;
  {
    TempDir dir("snap-carry-enum");
    auto store = storage::FileStore::Open(dir.path());
    ASSERT_TRUE(store.ok());
    DE_ASSERT_OK(WriteState(&store.value(), 20));
    DE_ASSERT_OK(WriteCarriedState(&store.value(), [&](const std::string& p) {
      points.push_back(p);
      return false;
    }));
  }
  // One written segment (2 points), the manifest (2) and gc; the carried
  // layer passes through none.
  ASSERT_EQ(points.size(), 5u);
  for (const std::string& point : points) {
    EXPECT_EQ(point.rfind("seg:1:", 0), std::string::npos) << point;
  }

  for (const std::string& point : points) {
    SCOPED_TRACE("kill at " + point);
    TempDir dir("snap-carry-kill");
    auto store = storage::FileStore::Open(dir.path());
    ASSERT_TRUE(store.ok());
    DE_ASSERT_OK(WriteState(&store.value(), 20));

    const Status aborted = WriteCarriedState(
        &store.value(), [&](const std::string& p) { return p == point; });
    EXPECT_EQ(aborted.code(), StatusCode::kCancelled);
    ExpectAOrCarriedB(&store.value());

    // A retry commits B over whichever state survived; the carried `.g1`
    // segment survives GC and every orphan is reclaimed.
    DE_ASSERT_OK(WriteCarriedState(&store.value()));
    EXPECT_EQ(ExpectAOrCarriedB(&store.value()), 30u);
    EXPECT_TRUE(store->Exists("snapshot/m/layer_1.g1.seg"));
    auto loaded = LoadSnapshot(&store.value(), "m");
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    std::set<std::string> referenced = {ManifestKeyFor("m")};
    for (const SegmentInfo& seg : loaded->manifest.segments) {
      referenced.insert(seg.key);
    }
    auto keys = store->ListKeys();
    ASSERT_TRUE(keys.ok());
    for (const std::string& key : *keys) {
      if (key.rfind("snapshot/m/", 0) == 0) {
        EXPECT_TRUE(referenced.count(key)) << "orphan survived GC: " << key;
      }
    }
  }
}

void FlipByteAt(const std::string& path, size_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

TEST(SnapshotTest, BitFlippedSegmentFailsLoad) {
  TempDir dir("snap-flip");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DE_ASSERT_OK(WriteState(&store.value(), 20));
  auto loaded = LoadSnapshot(&store.value(), "m");
  ASSERT_TRUE(loaded.ok());

  for (const SegmentInfo& seg : loaded->manifest.segments) {
    SCOPED_TRACE(seg.key);
    const std::string path = store->root() + "/" + seg.key;
    // Flip one bit in the middle of the payload, then restore it.
    FlipByteAt(path, seg.bytes / 2);
    EXPECT_FALSE(LoadSnapshot(&store.value(), "m").ok());
    FlipByteAt(path, seg.bytes / 2);
    EXPECT_TRUE(LoadSnapshot(&store.value(), "m").ok());
  }
}

TEST(SnapshotTest, BitFlippedManifestFailsLoad) {
  TempDir dir("snap-flipm");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DE_ASSERT_OK(WriteState(&store.value(), 20));
  const std::string path = store->root() + "/" + ManifestKeyFor("m");
  const auto size = std::filesystem::file_size(path);
  FlipByteAt(path, static_cast<size_t>(size) / 2);
  EXPECT_FALSE(LoadSnapshot(&store.value(), "m").ok());
}

TEST(SnapshotTest, UnknownSegmentKindFailsLoad) {
  TempDir dir("snap-kind");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DE_ASSERT_OK(WriteState(&store.value(), 20));
  const std::string key = ManifestKeyFor("m");
  auto blob = store->Read(key);
  ASSERT_TRUE(blob.ok());
  auto payload = UnwrapChecksum(blob.value(), "manifest");
  ASSERT_TRUE(payload.ok());
  // The first segment's kind byte follows magic, version, generation, the
  // model and dataset strings ("m", "d": u64 length + 1 byte each), the
  // dataset size, the creation time, the segment count and its layer.
  const size_t kind_at = 4 + 4 + 4 + 9 + 9 + 4 + 8 + 4 + 4;
  ASSERT_EQ(payload->at(kind_at), 0u);  // SegmentKind::kIndex
  payload->at(kind_at) = 1;  // no segment kind has this value
  DE_ASSERT_OK(store->Write(key, WrapChecksum(payload.value()), true));
  const auto manifest = ReadManifest(&store.value(), "m");
  ASSERT_FALSE(manifest.ok());
  EXPECT_EQ(manifest.status().code(), StatusCode::kIOError);
  EXPECT_NE(manifest.status().message().find("segment kind 1"),
            std::string::npos)
      << manifest.status().ToString();
  EXPECT_FALSE(LoadSnapshot(&store.value(), "m").ok());
}

TEST(SnapshotTest, TruncatedSegmentFailsLoad) {
  TempDir dir("snap-trunc");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DE_ASSERT_OK(WriteState(&store.value(), 20));
  auto loaded = LoadSnapshot(&store.value(), "m");
  ASSERT_TRUE(loaded.ok());
  const SegmentInfo& seg = loaded->manifest.segments.front();
  std::filesystem::resize_file(store->root() + "/" + seg.key,
                               seg.bytes / 2);
  EXPECT_FALSE(LoadSnapshot(&store.value(), "m").ok());
}

}  // namespace
}  // namespace persist
}  // namespace deepeverest
