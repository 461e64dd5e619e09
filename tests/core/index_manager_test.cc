#include "core/index_manager.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "persist/snapshot.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace core {
namespace {

using testing_util::TempDir;
using testing_util::TinySystem;

IndexManagerOptions Opts(int partitions = 4, double ratio = 0.1) {
  IndexManagerOptions options;
  options.layer_config = LayerIndexConfig{partitions, ratio};
  return options;
}

/// The model's committed manifest (fails the test when there is none).
persist::SnapshotManifest Manifest(storage::FileStore* store,
                                   const std::string& model) {
  auto manifest = persist::ReadManifest(store, model);
  EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
  return manifest.ok() ? std::move(manifest.value())
                       : persist::SnapshotManifest{};
}

/// Store key of `layer`'s committed segment, or "" when not committed.
std::string SegmentKey(storage::FileStore* store, const std::string& model,
                       int layer) {
  for (const persist::SegmentInfo& seg : Manifest(store, model).segments) {
    if (seg.layer == layer) return seg.key;
  }
  return "";
}

/// Whether the model's committed snapshot holds a segment for `layer`.
bool Committed(storage::FileStore* store, const std::string& model,
               int layer) {
  return !SegmentKey(store, model, layer).empty();
}

/// Size of the committed manifest file.
uint64_t ManifestBytes(storage::FileStore* store, const std::string& model) {
  auto bytes = store->SizeOf(persist::ManifestKeyFor(model));
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? *bytes : 0;
}

TEST(IndexManagerTest, BuildsOnFirstUseAndReturnsFreshActs) {
  TinySystem sys(30, 31, 8);
  TempDir dir("im");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  IndexManager manager(sys.engine.get(), &store.value(), Opts());

  const int layer = sys.model->activation_layers()[0];
  EXPECT_FALSE(manager.IsIndexed(layer));

  storage::LayerActivationMatrix fresh;
  PreprocessTimings timings;
  auto index = manager.EnsureIndex(layer, &fresh, &timings);
  ASSERT_TRUE(index.ok());
  // Fresh activations returned so the triggering query can be answered
  // without a second pass (section 4.6).
  EXPECT_EQ(fresh.num_inputs, 30u);
  EXPECT_EQ(fresh.num_neurons,
            static_cast<uint64_t>(sys.model->NeuronCount(layer)));
  EXPECT_GT(timings.inference_seconds + timings.index_seconds +
                timings.persist_seconds,
            0.0);
  EXPECT_TRUE(manager.IsIndexed(layer));
  EXPECT_TRUE(manager.IsLoaded(layer));
  // Persisted after the first build (§4.6): a snapshot commit.
  EXPECT_TRUE(Committed(&store.value(), sys.model->name(), layer));
}

TEST(IndexManagerTest, SecondCallDoesNotRebuild) {
  TinySystem sys(30, 32, 8);
  TempDir dir("im");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  IndexManager manager(sys.engine.get(), &store.value(), Opts());
  const int layer = sys.model->activation_layers()[1];

  ASSERT_TRUE(manager.EnsureIndex(layer).ok());
  const int64_t after_build = sys.engine->stats().inputs_run;
  storage::LayerActivationMatrix fresh;
  auto again = manager.EnsureIndex(layer, &fresh);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(sys.engine->stats().inputs_run, after_build);  // no inference
  EXPECT_EQ(fresh.num_inputs, 0u);  // nothing recomputed
}

TEST(IndexManagerTest, LoadsPersistedIndexAcrossManagers) {
  TinySystem sys(25, 33, 8);
  TempDir dir("im");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  const int layer = sys.model->activation_layers()[0];
  {
    IndexManager manager(sys.engine.get(), &store.value(), Opts());
    ASSERT_TRUE(manager.EnsureIndex(layer).ok());
  }
  // A new manager (new session) loads the committed segment: no inference.
  IndexManager manager2(sys.engine.get(), &store.value(), Opts());
  EXPECT_TRUE(manager2.IsIndexed(layer));
  EXPECT_FALSE(manager2.IsLoaded(layer));
  const int64_t before = sys.engine->stats().inputs_run;
  auto index = manager2.EnsureIndex(layer);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(sys.engine->stats().inputs_run, before);
  EXPECT_EQ((*index)->num_inputs(), 25u);
}

TEST(IndexManagerTest, CatchUpStaysInMemoryUntilCommit) {
  TinySystem sys(20, 34, 8);
  TempDir dir("im");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  IndexManager manager(sys.engine.get(), &store.value(), Opts(4, 0.0));
  const int layer = sys.model->activation_layers()[0];
  ASSERT_TRUE(manager.EnsureIndex(layer).ok());
  auto committed_bytes = manager.PersistedBytes();
  ASSERT_TRUE(committed_bytes.ok());
  EXPECT_GT(*committed_bytes, 0u);

  for (uint32_t i = 0; i < 5; ++i) {
    sys.dataset.Add(Tensor(Shape({8}), std::vector<float>(8, 0.1f * i)), 0);
  }
  const uint64_t written = store->bytes_written();
  DE_ASSERT_OK(manager.CatchUp(layer, 25));
  EXPECT_EQ(manager.Peek(layer)->num_inputs(), 25u);
  // The merge is published in memory only.
  EXPECT_EQ(store->bytes_written(), written);
  auto bytes = manager.PersistedBytes();
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, *committed_bytes);

  // The next commit makes it durable.
  auto info = manager.CommitSnapshot();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->layers, 1u);
  EXPECT_EQ(info->dataset_size, 25u);
  IndexManager manager2(sys.engine.get(), &store.value(), Opts(4, 0.0));
  auto reloaded = manager2.EnsureIndex(layer);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ((*reloaded)->num_inputs(), 25u);
}

TEST(IndexManagerTest, CommitKeepsCommittedLayersItNeverLoaded) {
  TinySystem sys(20, 37, 8);
  TempDir dir("im");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  {
    IndexManager manager(sys.engine.get(), &store.value(), Opts());
    ASSERT_TRUE(manager.EnsureIndex(0).ok());
    ASSERT_TRUE(manager.EnsureIndex(1).ok());
  }
  // A later session builds another layer; its commit replaces the snapshot
  // but must not drop the layers it never touched — nor read them: a commit
  // reads the manifest and no segment.
  {
    IndexManager manager(sys.engine.get(), &store.value(), Opts());
    ASSERT_TRUE(manager.EnsureIndex(2).ok());
    const uint64_t manifest_bytes = ManifestBytes(&store.value(),
                                                  sys.model->name());
    const uint64_t read_before = store->bytes_read();
    auto info = manager.CommitSnapshot();
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(store->bytes_read() - read_before, manifest_bytes);
    EXPECT_EQ(info->layers, 3u);
    EXPECT_EQ(manager.LoadedLayers(), std::vector<int>{2});
  }
  IndexManager manager(sys.engine.get(), &store.value(), Opts());
  const int64_t before = sys.engine->stats().inputs_run;
  for (int layer = 0; layer < 3; ++layer) {
    EXPECT_TRUE(Committed(&store.value(), sys.model->name(), layer));
    ASSERT_TRUE(manager.EnsureIndex(layer).ok()) << "layer " << layer;
  }
  EXPECT_EQ(sys.engine->stats().inputs_run, before);
}

TEST(IndexManagerTest, EachBuildWritesOnlyItsOwnSegment) {
  TinySystem sys(20, 39, 8);
  TempDir dir("im");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  IndexManager manager(sys.engine.get(), &store.value(), Opts());
  uint64_t manifests = 0;
  std::vector<std::string> keys;
  for (int layer = 0; layer < 3; ++layer) {
    ASSERT_TRUE(manager.EnsureIndex(layer).ok()) << "layer " << layer;
    manifests += ManifestBytes(&store.value(), sys.model->name());
    keys.push_back(SegmentKey(&store.value(), sys.model->name(), layer));
  }
  // Three commits wrote three segments, each once, plus three manifests.
  const persist::SnapshotManifest manifest =
      Manifest(&store.value(), sys.model->name());
  ASSERT_EQ(manifest.segments.size(), 3u);
  uint64_t segments = 0;
  for (const persist::SegmentInfo& seg : manifest.segments) {
    segments += seg.bytes;
    EXPECT_EQ(seg.key, keys[static_cast<size_t>(seg.layer)])
        << "layer " << seg.layer << " was rewritten";
  }
  EXPECT_EQ(store->bytes_written(), segments + manifests);
  const SnapshotInfo info = manager.last_snapshot();
  EXPECT_EQ(info.layers, 3u);
  EXPECT_EQ(info.bytes,
            segments + ManifestBytes(&store.value(), sys.model->name()));
}

TEST(IndexManagerTest, LoadedLayerIsRewrittenOnlyAfterCatchUp) {
  TinySystem sys(20, 40, 8);
  TempDir dir("im");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  const std::string& model = sys.model->name();
  {
    IndexManager manager(sys.engine.get(), &store.value(), Opts(4, 0.0));
    ASSERT_TRUE(manager.EnsureIndex(0).ok());
  }
  IndexManager manager(sys.engine.get(), &store.value(), Opts(4, 0.0));
  ASSERT_TRUE(manager.EnsureIndex(0).ok());  // loaded from its segment
  const std::string loaded_key = SegmentKey(&store.value(), model, 0);

  // Building layer 1 writes layer 1's segment and the manifest only.
  const uint64_t written = store->bytes_written();
  ASSERT_TRUE(manager.EnsureIndex(1).ok());
  EXPECT_EQ(SegmentKey(&store.value(), model, 0), loaded_key);
  const persist::SnapshotManifest after_build = Manifest(&store.value(), model);
  ASSERT_EQ(after_build.segments.size(), 2u);
  EXPECT_EQ(store->bytes_written() - written,
            after_build.segments[1].bytes + ManifestBytes(&store.value(), model));

  // A commit with nothing changed rewrites no segment.
  const std::string layer1_key = SegmentKey(&store.value(), model, 1);
  ASSERT_TRUE(manager.CommitSnapshot().ok());
  EXPECT_EQ(SegmentKey(&store.value(), model, 0), loaded_key);
  EXPECT_EQ(SegmentKey(&store.value(), model, 1), layer1_key);

  // CatchUp publishes a merged layer 0: the next commit writes it again,
  // and carries layer 1.
  for (uint32_t i = 0; i < 5; ++i) {
    sys.dataset.Add(Tensor(Shape({8}), std::vector<float>(8, 0.2f * i)), 0);
  }
  DE_ASSERT_OK(manager.CatchUp(0, 25));
  auto info = manager.CommitSnapshot();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->layers, 2u);
  EXPECT_EQ(info->dataset_size, 25u);
  EXPECT_NE(SegmentKey(&store.value(), model, 0), loaded_key);
  EXPECT_EQ(SegmentKey(&store.value(), model, 1), layer1_key);
  EXPECT_FALSE(store->Exists(loaded_key));  // reclaimed by GC

  IndexManager manager2(sys.engine.get(), &store.value(), Opts(4, 0.0));
  const int64_t before = sys.engine->stats().inputs_run;
  auto reloaded0 = manager2.EnsureIndex(0);
  auto reloaded1 = manager2.EnsureIndex(1);
  ASSERT_TRUE(reloaded0.ok() && reloaded1.ok());
  EXPECT_EQ((*reloaded0)->num_inputs(), 25u);
  EXPECT_EQ((*reloaded1)->num_inputs(), 20u);
  EXPECT_EQ(sys.engine->stats().inputs_run, before);
}

TEST(IndexManagerTest, ConcurrentLoadsAndBuildsNeverRebuildACommittedLayer) {
  TinySystem sys(20, 38, 8);
  TempDir dir("im");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  {
    IndexManager manager(sys.engine.get(), &store.value(), Opts());
    for (int layer = 0; layer < 3; ++layer) {
      ASSERT_TRUE(manager.EnsureIndex(layer).ok());
    }
  }
  // Loads of layers 0-2 race builds (and commits) of layers 3-5.
  IndexManager manager(sys.engine.get(), &store.value(), Opts());
  std::atomic<bool> invalidated{false};
  manager.set_index_invalidation_hook([&](int) { invalidated = true; });
  const int64_t before = sys.engine->stats().inputs_run;
  std::vector<std::thread> threads;
  for (int layer = 0; layer < 6; ++layer) {
    threads.emplace_back(
        [&manager, layer] { EXPECT_TRUE(manager.EnsureIndex(layer).ok()); });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(invalidated);
  EXPECT_EQ(sys.engine->stats().inputs_run - before, 3 * 20);
  for (int layer = 0; layer < 6; ++layer) {
    EXPECT_TRUE(Committed(&store.value(), sys.model->name(), layer))
        << "layer " << layer;
  }
}

TEST(IndexManagerTest, PreprocessAllLayersIndexesEverything) {
  TinySystem sys(15, 35, 8);
  TempDir dir("im");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  IndexManager manager(sys.engine.get(), &store.value(), Opts());
  PreprocessTimings timings;
  DE_ASSERT_OK(manager.PreprocessAllLayers(&timings));
  for (int layer = 0; layer < sys.model->num_layers(); ++layer) {
    EXPECT_TRUE(manager.IsIndexed(layer)) << "layer " << layer;
  }
  auto bytes = manager.PersistedBytes();
  ASSERT_TRUE(bytes.ok());
  EXPECT_GT(*bytes, 0u);
  EXPECT_GT(timings.inference_seconds, 0.0);
}

TEST(IndexManagerTest, RejectsBadLayer) {
  TinySystem sys(10, 36, 8);
  TempDir dir("im");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  IndexManager manager(sys.engine.get(), &store.value(), Opts());
  EXPECT_TRUE(manager.EnsureIndex(-1).status().IsOutOfRange());
  EXPECT_TRUE(manager.EnsureIndex(99).status().IsOutOfRange());
}

}  // namespace
}  // namespace core
}  // namespace deepeverest
