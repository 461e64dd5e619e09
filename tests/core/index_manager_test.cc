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

/// Whether the model's committed snapshot holds a segment for `layer`.
bool Committed(storage::FileStore* store, const std::string& model,
               int layer) {
  auto manifest = persist::ReadManifest(store, model);
  if (!manifest.ok()) return false;
  for (const persist::SegmentInfo& seg : manifest->segments) {
    if (seg.layer == layer) return true;
  }
  return false;
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
  // but must not drop the layers it never touched.
  {
    IndexManager manager(sys.engine.get(), &store.value(), Opts());
    ASSERT_TRUE(manager.EnsureIndex(2).ok());
  }
  IndexManager manager(sys.engine.get(), &store.value(), Opts());
  const int64_t before = sys.engine->stats().inputs_run;
  for (int layer = 0; layer < 3; ++layer) {
    EXPECT_TRUE(Committed(&store.value(), sys.model->name(), layer));
    ASSERT_TRUE(manager.EnsureIndex(layer).ok()) << "layer " << layer;
  }
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
