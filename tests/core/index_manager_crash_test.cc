// Crash/corruption behavior of the committed index segments an IndexManager
// loads on a miss: commits are write-temp/fsync/rename (a kill can never
// leave a torn file under a live key), every load is validated against the
// manifest, and a corrupt, truncated, or out-of-range segment triggers
// rebuild-and-rewarn plus cache invalidation — never a silently wrong index.
#include "core/index_manager.h"

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/snapshot.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace core {
namespace {

using testing_util::FlipByteAt;
using testing_util::SegmentPath;
using testing_util::TempDir;
using testing_util::TinySystem;

IndexManagerOptions Opts() {
  IndexManagerOptions options;
  options.layer_config = LayerIndexConfig{4, 0.1};
  return options;
}

/// Builds `layer` in a first manager, damages its committed segment with
/// `damage`, and checks that a second manager rebuilds it (firing the hook
/// once) and a third loads the recommitted snapshot with zero inference.
void ExpectRebuildAfterDamage(TinySystem* sys, storage::FileStore* store,
                              int layer,
                              void (*damage)(const std::string& path)) {
  uint32_t built_inputs = 0;
  {
    IndexManager manager(sys->engine.get(), store, Opts());
    auto index = manager.EnsureIndex(layer);
    ASSERT_TRUE(index.ok());
    built_inputs = (*index)->num_inputs();
  }
  damage(SegmentPath(store, sys->model->name(), layer));

  IndexManager manager(sys->engine.get(), store, Opts());
  std::vector<int> invalidated;
  manager.set_index_invalidation_hook(
      [&](int l) { invalidated.push_back(l); });
  const int64_t before_rebuild = sys->engine->stats().inputs_run;
  auto index = manager.EnsureIndex(layer);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ((*index)->num_inputs(), built_inputs);
  // The rebuild re-ran inference (corrupt bytes are never trusted) and
  // fired the invalidation hook so caches keyed on the old index drop.
  EXPECT_EQ(sys->engine->stats().inputs_run - before_rebuild,
            static_cast<int64_t>(built_inputs));
  ASSERT_EQ(invalidated.size(), 1u);
  EXPECT_EQ(invalidated[0], layer);

  // The rebuild recommitted the snapshot: a third manager loads it cleanly —
  // no rebuild, no hook.
  IndexManager manager3(sys->engine.get(), store, Opts());
  bool hook_fired = false;
  manager3.set_index_invalidation_hook([&](int) { hook_fired = true; });
  const int64_t inference_before = sys->engine->stats().inputs_run;
  auto reloaded = manager3.EnsureIndex(layer);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ((*reloaded)->num_inputs(), built_inputs);
  EXPECT_FALSE(hook_fired);
  EXPECT_EQ(sys->engine->stats().inputs_run, inference_before);
}

TEST(IndexManagerCrashTest, CommitLeavesNoTempFiles) {
  TinySystem sys(25, 51, 8);
  TempDir dir("imc");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  IndexManager manager(sys.engine.get(), &store.value(), Opts());
  ASSERT_TRUE(manager.EnsureIndex(sys.model->activation_layers()[0]).ok());

  auto keys = store->ListKeys();
  ASSERT_TRUE(keys.ok());
  bool saw_segment = false;
  for (const std::string& key : *keys) {
    EXPECT_EQ(key.find(".tmp"), std::string::npos) << key;
    saw_segment = saw_segment || key.rfind(".seg") == key.size() - 4;
  }
  EXPECT_TRUE(saw_segment);
}

TEST(IndexManagerCrashTest, TruncatedSegmentRebuildsAndInvalidates) {
  TinySystem sys(25, 52, 8);
  TempDir dir("imc-trunc");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  // Simulate a torn write that somehow landed under the live key (e.g.
  // media failure): halve the file.
  ExpectRebuildAfterDamage(&sys, &store.value(),
                           sys.model->activation_layers()[0],
                           [](const std::string& path) {
                             std::filesystem::resize_file(
                                 path, std::filesystem::file_size(path) / 2);
                           });
}

TEST(IndexManagerCrashTest, BitFlippedSegmentRebuildsAndInvalidates) {
  TinySystem sys(25, 53, 8);
  TempDir dir("imc-flip");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  ExpectRebuildAfterDamage(&sys, &store.value(),
                           sys.model->activation_layers()[1],
                           [](const std::string& path) {
                             FlipByteAt(path,
                                        std::filesystem::file_size(path) / 2);
                           });
}

TEST(IndexManagerCrashTest, SegmentPastDatasetRebuildsAndInvalidates) {
  TinySystem sys(25, 54, 8);
  TempDir dir("imc-past");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  const int layer = sys.model->activation_layers()[0];
  {
    IndexManager manager(sys.engine.get(), &store.value(), Opts());
    ASSERT_TRUE(manager.EnsureIndex(layer).ok());
  }
  // The same dataset cut short (e.g. its ingest log was lost): the committed
  // segment covers inputs that no longer exist.
  data::Dataset shorter(sys.dataset.name(), sys.dataset.input_shape());
  for (uint32_t id = 0; id < 20; ++id) {
    shorter.Add(sys.dataset.input(id), sys.dataset.label(id));
  }
  nn::InferenceEngine engine(sys.model.get(), &shorter, 8);
  IndexManager manager(&engine, &store.value(), Opts());
  std::vector<int> invalidated;
  manager.set_index_invalidation_hook(
      [&](int l) { invalidated.push_back(l); });
  auto index = manager.EnsureIndex(layer);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ((*index)->num_inputs(), 20u);
  EXPECT_EQ(engine.stats().inputs_run, 20);
  ASSERT_EQ(invalidated.size(), 1u);
  EXPECT_EQ(invalidated[0], layer);
}

TEST(IndexManagerCrashTest, CommitDoesNotCarrySegmentsPastTheDataset) {
  TinySystem sys(25, 56, 8);
  TempDir dir("imc-past-carry");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  const int early = sys.model->activation_layers()[0];
  const int late = sys.model->activation_layers()[1];
  {
    IndexManager manager(sys.engine.get(), &store.value(), Opts());
    ASSERT_TRUE(manager.EnsureIndex(early).ok());
    ASSERT_TRUE(manager.EnsureIndex(late).ok());
  }
  // Over a dataset cut short, the rebuilt layer's commit must not keep the
  // other layer's segment: it indexes inputs that no longer exist.
  data::Dataset shorter(sys.dataset.name(), sys.dataset.input_shape());
  for (uint32_t id = 0; id < 20; ++id) {
    shorter.Add(sys.dataset.input(id), sys.dataset.label(id));
  }
  nn::InferenceEngine engine(sys.model.get(), &shorter, 8);
  IndexManager manager(&engine, &store.value(), Opts());
  ASSERT_TRUE(manager.EnsureIndex(early).ok());
  auto manifest = persist::ReadManifest(&store.value(), sys.model->name());
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->dataset_size, 20u);
  ASSERT_EQ(manifest->segments.size(), 1u);
  EXPECT_EQ(manifest->segments[0].layer, early);
  EXPECT_EQ(manifest->segments[0].watermark, 20u);
}

TEST(IndexManagerCrashTest, CorruptCarriedSegmentRebuildsAndRecommits) {
  TinySystem sys(25, 55, 8);
  TempDir dir("imc-carry");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  const int early = sys.model->activation_layers()[0];
  const int late = sys.model->activation_layers()[1];
  {
    // The second build's commit carries the first layer's segment.
    IndexManager manager(sys.engine.get(), &store.value(), Opts());
    ASSERT_TRUE(manager.EnsureIndex(early).ok());
    const std::string carried = SegmentPath(&store.value(), sys.model->name(),
                                            early);
    ASSERT_TRUE(manager.EnsureIndex(late).ok());
    ASSERT_EQ(SegmentPath(&store.value(), sys.model->name(), early), carried);
  }
  // Bit rot in the carried segment, then the usual discard/rebuild/
  // recommit path; the other layer still loads with no inference.
  ExpectRebuildAfterDamage(&sys, &store.value(), early,
                           [](const std::string& path) {
                             FlipByteAt(path,
                                        std::filesystem::file_size(path) / 2);
                           });
  IndexManager manager(sys.engine.get(), &store.value(), Opts());
  const int64_t before = sys.engine->stats().inputs_run;
  ASSERT_TRUE(manager.EnsureIndex(late).ok());
  EXPECT_EQ(sys.engine->stats().inputs_run, before);
}

}  // namespace
}  // namespace core
}  // namespace deepeverest
