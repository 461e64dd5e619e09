// Warm restart from a committed snapshot: a second process over the same
// store must serve its first query from the snapshot's indexes — zero
// dataset inference at startup, first-query cost exactly equal to a warm
// query in the first process, answers bit-identical.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/ingest.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace persist {
namespace {

using testing_util::MakeVectorDataset;
using testing_util::TempDir;

constexpr uint64_t kSeed = 83;
constexpr int kDims = 8;

core::DeepEverestOptions SmallOptions() {
  core::DeepEverestOptions options;
  options.batch_size = 8;
  options.num_partitions_override = 4;
  options.mai_ratio_override = 0.1;
  return options;
}

TEST(WarmRestartTest, FirstQueryRunsNoDatasetInference) {
  TempDir dir("warm");
  auto model = nn::MakeTinyMlp(kDims, kSeed);
  const int layer = model->activation_layers()[0];
  const core::NeuronGroup group{layer, {2, 5}};

  core::TopKResult expected;
  int64_t warm_query_inputs = 0;
  size_t preprocessed_layers = 0;

  // First life: preprocess everything, commit a snapshot, and measure what
  // the first post-preprocess query costs on a warm engine.
  {
    auto store = storage::FileStore::Open(dir.path());
    ASSERT_TRUE(store.ok());
    data::Dataset dataset = MakeVectorDataset(30, kDims, kSeed + 1);
    auto engine = core::DeepEverest::Create(model.get(), &dataset,
                                            &store.value(), SmallOptions());
    ASSERT_TRUE(engine.ok());
    DE_ASSERT_OK((*engine)->PreprocessAllLayers());
    preprocessed_layers = (*engine)->index_manager()->LoadedLayers().size();

    auto queue =
        IngestQueue::Create(engine->get(), &dataset, &store.value(), {});
    ASSERT_TRUE(queue.ok()) << queue.status().ToString();
    DE_ASSERT_OK((*queue)->SaveSnapshot());

    auto warm = (*engine)->ExecuteSpec(core::HighestQuery(group, 5));
    ASSERT_TRUE(warm.ok());
    expected = std::move(warm.value());
    warm_query_inputs = expected.stats.inputs_run;
    EXPECT_LT(warm_query_inputs, 30);  // index-guided, not a full scan
    (*queue)->Shutdown();
  }

  // Second life: no preprocessing call anywhere.
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  data::Dataset dataset = MakeVectorDataset(30, kDims, kSeed + 1);
  auto engine = core::DeepEverest::Create(model.get(), &dataset,
                                          &store.value(), SmallOptions());
  ASSERT_TRUE(engine.ok());
  auto queue =
      IngestQueue::Create(engine->get(), &dataset, &store.value(), {});
  ASSERT_TRUE(queue.ok()) << queue.status().ToString();
  EXPECT_EQ((*queue)->recovered_layers(), preprocessed_layers);

  // Startup ran zero inference: recovery is deserialization, not compute.
  EXPECT_EQ((*engine)->inference()->stats().inputs_run, 0);

  auto first = (*engine)->ExecuteSpec(core::HighestQuery(group, 5));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // The first query costs exactly what a warm query costs — the full
  // 30-input preprocessing pass never ran.
  EXPECT_EQ(first->stats.inputs_run, warm_query_inputs);
  EXPECT_EQ((*engine)->inference()->stats().inputs_run, warm_query_inputs);

  ASSERT_EQ(first->entries.size(), expected.entries.size());
  for (size_t i = 0; i < expected.entries.size(); ++i) {
    EXPECT_EQ(first->entries[i].input_id, expected.entries[i].input_id);
    EXPECT_EQ(first->entries[i].value, expected.entries[i].value);
  }

  (*queue)->Shutdown();
}

TEST(WarmRestartTest, FirstQueryAfterIngestRunsNoDatasetInference) {
  TempDir dir("warm-ingest");
  auto model = nn::MakeTinyMlp(kDims, kSeed);
  const core::NeuronGroup group{model->activation_layers()[0], {1, 4, 6}};
  const core::QuerySpec queries[] = {core::HighestQuery(group, 5),
                                     core::MostSimilarQuery(35, group, 4)};
  std::vector<service::IngestInput> extras(12);
  for (size_t i = 0; i < extras.size(); ++i) {
    for (int d = 0; d < kDims; ++d) {
      extras[i].values.push_back(static_cast<float>((i * 7 + d * 3) % 11) -
                                 5.0f);
    }
  }

  // First life: build the index, ingest a batch, let the applier merge it,
  // commit a snapshot, then take the answers the restart must reproduce.
  std::vector<core::TopKResult> expected;
  size_t indexed_layers = 0;
  {
    auto store = storage::FileStore::Open(dir.path());
    ASSERT_TRUE(store.ok());
    data::Dataset dataset = MakeVectorDataset(30, kDims, kSeed + 1);
    auto engine = core::DeepEverest::Create(model.get(), &dataset,
                                            &store.value(), SmallOptions());
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->ExecuteSpec(queries[0]).ok());  // builds
    indexed_layers = (*engine)->index_manager()->LoadedLayers().size();
    auto queue =
        IngestQueue::Create(engine->get(), &dataset, &store.value(), {});
    ASSERT_TRUE(queue.ok()) << queue.status().ToString();
    ASSERT_TRUE((*queue)->Ingest(extras).ok());
    ASSERT_TRUE((*queue)->WaitIdle(30.0));
    DE_ASSERT_OK((*queue)->SaveSnapshot());
    for (const core::QuerySpec& query : queries) {
      auto answer = (*engine)->ExecuteSpec(query);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      EXPECT_EQ(answer->stats.dataset_version, 42);
      expected.push_back(std::move(answer.value()));
    }
    (*queue)->Shutdown();
  }

  // Second life: the log replays the ingested inputs and the snapshot
  // already covers them, so startup runs no inference at all.
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  data::Dataset dataset = MakeVectorDataset(30, kDims, kSeed + 1);
  auto engine = core::DeepEverest::Create(model.get(), &dataset,
                                          &store.value(), SmallOptions());
  ASSERT_TRUE(engine.ok());
  auto queue =
      IngestQueue::Create(engine->get(), &dataset, &store.value(), {});
  ASSERT_TRUE(queue.ok()) << queue.status().ToString();
  ASSERT_TRUE((*queue)->WaitIdle(30.0));
  EXPECT_EQ((*queue)->recovered_inputs(), extras.size());
  EXPECT_EQ((*queue)->recovered_layers(), indexed_layers);
  EXPECT_EQ((*engine)->inference()->stats().inputs_run, 0);

  for (size_t q = 0; q < expected.size(); ++q) {
    auto answer = (*engine)->ExecuteSpec(queries[q]);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer->stats.dataset_version, 42);
    ASSERT_EQ(answer->entries.size(), expected[q].entries.size());
    for (size_t i = 0; i < expected[q].entries.size(); ++i) {
      EXPECT_EQ(answer->entries[i].input_id, expected[q].entries[i].input_id);
      EXPECT_EQ(answer->entries[i].value, expected[q].entries[i].value);
    }
  }
  (*queue)->Shutdown();
}

}  // namespace
}  // namespace persist
}  // namespace deepeverest
