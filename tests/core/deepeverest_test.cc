// Integration tests for the DeepEverest facade: incremental indexing,
// query correctness against brute force, IQA, config selection, and the
// interpretation-session helpers.
#include "core/deepeverest.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/nta.h"
#include "nn/layers.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace core {
namespace {

using testing_util::ExpectValidTopK;
using testing_util::TempDir;
using testing_util::TinySystem;

DeepEverestOptions SmallOptions() {
  DeepEverestOptions options;
  options.batch_size = 8;
  options.num_partitions_override = 4;
  options.mai_ratio_override = 0.1;
  return options;
}

TEST(DeepEverestTest, CreateValidatesArguments) {
  TinySystem sys(10, 41, 8);
  TempDir dir("de");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(DeepEverest::Create(nullptr, &sys.dataset, &store.value(),
                                   SmallOptions())
                   .ok());
  DeepEverestOptions bad = SmallOptions();
  bad.batch_size = 0;
  EXPECT_FALSE(
      DeepEverest::Create(sys.model.get(), &sys.dataset, &store.value(), bad)
          .ok());
  bad = SmallOptions();
  bad.storage_budget_fraction = 0.0;
  EXPECT_FALSE(
      DeepEverest::Create(sys.model.get(), &sys.dataset, &store.value(), bad)
          .ok());
}

TEST(DeepEverestTest, FirstQueryBuildsIndexSecondUsesIt) {
  TinySystem sys(40, 42, 8);
  TempDir dir("de");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  auto de = DeepEverest::Create(sys.model.get(), &sys.dataset, &store.value(),
                                SmallOptions());
  ASSERT_TRUE(de.ok());

  const int layer = sys.model->activation_layers()[1];
  const NeuronGroup group{layer, {1, 5, 9}};

  // First query: incremental indexing computes all 40 inputs once.
  auto first = (*de)->TopKMostSimilar(7, group, 5);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->stats.inputs_run, 40);
  EXPECT_TRUE((*de)->index_manager()->IsIndexed(layer));

  // Second query on the same layer: index-guided, strictly fewer inputs.
  auto second = (*de)->TopKMostSimilar(8, group, 5);
  ASSERT_TRUE(second.ok());
  EXPECT_LT(second->stats.inputs_run, 40);
}

TEST(DeepEverestTest, ResultsMatchBruteForceBothQueryTypes) {
  TinySystem sys(50, 43, 8);
  TempDir dir("de");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  auto de = DeepEverest::Create(sys.model.get(), &sys.dataset, &store.value(),
                                SmallOptions());
  ASSERT_TRUE(de.ok());

  const int layer = sys.model->activation_layers()[0];
  const NeuronGroup group{layer, {2, 4, 11}};

  // Warm up the index so both paths exercise NTA.
  ASSERT_TRUE((*de)->TopKHighest(group, 1).ok());

  auto highest = (*de)->TopKHighest(group, 8);
  ASSERT_TRUE(highest.ok());
  auto expected_highest =
      BruteForceHighest((*de)->inference(), group, 8, L2Distance());
  ASSERT_TRUE(expected_highest.ok());
  ExpectValidTopK(*expected_highest, *highest, /*smaller_is_better=*/false);

  const uint32_t target = 13;
  auto similar = (*de)->TopKMostSimilar(target, group, 8);
  ASSERT_TRUE(similar.ok());
  std::vector<std::vector<float>> rows;
  DE_ASSERT_OK((*de)->inference()->ComputeLayer({target}, layer, &rows));
  std::vector<float> target_acts(group.neurons.size());
  for (size_t i = 0; i < group.neurons.size(); ++i) {
    target_acts[i] = rows[0][static_cast<size_t>(group.neurons[i])];
  }
  auto expected_similar =
      BruteForceMostSimilar((*de)->inference(), group, target_acts, 8,
                            L2Distance(), true, target);
  ASSERT_TRUE(expected_similar.ok());
  ExpectValidTopK(*expected_similar, *similar, /*smaller_is_better=*/true);
}

TEST(DeepEverestTest, TopKHighestIsSimilarityToInfiniteTarget) {
  // Section 2: a top-k highest query equals a most-similar query against a
  // hypothetical target with infinite activations. With l1 distance the
  // orders coincide exactly (ordering by sum of activations).
  TinySystem sys(30, 44, 8);
  TempDir dir("de");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  auto de = DeepEverest::Create(sys.model.get(), &sys.dataset, &store.value(),
                                SmallOptions());
  ASSERT_TRUE(de.ok());
  const int layer = sys.model->activation_layers()[0];
  const NeuronGroup group{layer, {0, 3}};

  auto highest = (*de)->TopKHighest(group, 5, DistanceKind::kL1);
  ASSERT_TRUE(highest.ok());

  // Huge-but-finite pseudo-infinite target, expressed as an out-of-dataset
  // target via QuerySpec::target_activations.
  QuerySpec spec;
  spec.kind = QuerySpec::Kind::kMostSimilar;
  spec.k = 5;
  spec.layer = layer;
  spec.neurons = group.neurons;
  spec.target_activations = {1e9f, 1e9f};
  spec.distance = DistanceKind::kL1;
  auto as_similar = (*de)->ExecuteSpec(spec);
  ASSERT_TRUE(as_similar.ok());
  ASSERT_EQ(highest->entries.size(), as_similar->entries.size());
  for (size_t i = 0; i < highest->entries.size(); ++i) {
    EXPECT_EQ(highest->entries[i].input_id, as_similar->entries[i].input_id)
        << "rank " << i;
  }
}

TEST(DeepEverestTest, MaximallyActivatedNeuronsAreSortedAndCorrect) {
  TinySystem sys(20, 45, 8);
  TempDir dir("de");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  auto de = DeepEverest::Create(sys.model.get(), &sys.dataset, &store.value(),
                                SmallOptions());
  ASSERT_TRUE(de.ok());
  const int layer = sys.model->activation_layers()[0];

  auto top = (*de)->MaximallyActivatedNeurons(4, layer, 5);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 5u);

  std::vector<std::vector<float>> rows;
  DE_ASSERT_OK((*de)->inference()->ComputeLayer({4}, layer, &rows));
  for (size_t i = 1; i < top->size(); ++i) {
    EXPECT_GE(rows[0][static_cast<size_t>((*top)[i - 1])],
              rows[0][static_cast<size_t>((*top)[i])]);
  }
  // The first really is the max.
  float max_act = rows[0][0];
  for (float v : rows[0]) max_act = std::max(max_act, v);
  EXPECT_EQ(rows[0][static_cast<size_t>((*top)[0])], max_act);
}

TEST(DeepEverestTest, IqaCacheSpeedsUpRelatedQueries) {
  TinySystem sys(60, 46, 8);
  TempDir dir("de");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DeepEverestOptions options = SmallOptions();
  options.enable_iqa = true;
  options.iqa_capacity_bytes = 1 << 24;
  auto de = DeepEverest::Create(sys.model.get(), &sys.dataset, &store.value(),
                                options);
  ASSERT_TRUE(de.ok());
  const int layer = sys.model->activation_layers()[1];
  // Warm up: the first query on a layer answers from the incremental index
  // build (a full scan), so NTA — and hence the IQA cache — only engages
  // from the second query on.
  ASSERT_TRUE((*de)->TopKHighest(NeuronGroup{layer, {0}}, 1).ok());
  ASSERT_TRUE((*de)->TopKMostSimilar(3, NeuronGroup{layer, {0, 2, 4}}, 5).ok());
  auto related = (*de)->TopKMostSimilar(3, NeuronGroup{layer, {0, 2, 6}}, 5);
  ASSERT_TRUE(related.ok());
  EXPECT_GT(related->stats.iqa_hits, 0);
}

TEST(DeepEverestTest, ConfigSelectionRespectsBudget) {
  TinySystem sys(64, 47, 4);
  TempDir dir("de");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DeepEverestOptions options;
  options.batch_size = 4;
  options.storage_budget_fraction = 0.2;
  auto de = DeepEverest::Create(sys.model.get(), &sys.dataset, &store.value(),
                                options);
  ASSERT_TRUE(de.ok());
  const SystemConfig& config = (*de)->config();
  EXPECT_GE(config.num_partitions, 2);

  int64_t total_neurons = 0;
  for (int layer = 0; layer < sys.model->num_layers(); ++layer) {
    total_neurons += sys.model->NeuronCount(layer);
  }
  const uint64_t budget =
      static_cast<uint64_t>(0.2 * (*de)->FullMaterializationBytes());
  EXPECT_LE(NpiCostBytes(total_neurons, sys.dataset.size(),
                         config.num_partitions) +
                MaiCostBytes(total_neurons, sys.dataset.size(),
                             config.mai_ratio),
            budget);
}

TEST(DeepEverestTest, PersistedIndexesStayUnderBudgetAfterFullPreprocess) {
  // At toy scale the per-partition bounds (which the paper's budget formula
  // treats as negligible) would dominate, so pin a modest configuration and
  // use enough inputs for the PID payload to be the main cost.
  TinySystem sys(256, 48, 4);
  TempDir dir("de");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DeepEverestOptions options;
  options.batch_size = 4;
  options.storage_budget_fraction = 0.25;
  options.num_partitions_override = 4;
  options.mai_ratio_override = 0.02;
  auto de = DeepEverest::Create(sys.model.get(), &sys.dataset, &store.value(),
                                options);
  ASSERT_TRUE(de.ok());
  DE_ASSERT_OK((*de)->PreprocessAllLayers());
  auto persisted = (*de)->PersistedIndexBytes();
  ASSERT_TRUE(persisted.ok());
  EXPECT_GT(*persisted, 0u);
  EXPECT_LT(*persisted, (*de)->FullMaterializationBytes() / 2);
}

TEST(DeepEverestTest, PersistedIndexBytesCountsOnlyItsOwnModel) {
  TinySystem sys(30, 47, 8);
  Rng rng(48);
  nn::Model other("OtherMlp", Shape({8}));
  other.AddLayer(std::make_unique<nn::Dense>("fc1", 8, 6, &rng));
  other.AddLayer(std::make_unique<nn::Relu>("relu1"));
  DE_ASSERT_OK(other.Finalize());

  TempDir dir("de-shared");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  auto tiny = DeepEverest::Create(sys.model.get(), &sys.dataset,
                                  &store.value(), SmallOptions());
  auto mlp = DeepEverest::Create(&other, &sys.dataset, &store.value(),
                                 SmallOptions());
  ASSERT_TRUE(tiny.ok());
  ASSERT_TRUE(mlp.ok());

  DE_ASSERT_OK((*tiny)->PreprocessAllLayers());
  auto tiny_bytes = (*tiny)->PersistedIndexBytes();
  auto mlp_bytes = (*mlp)->PersistedIndexBytes();
  ASSERT_TRUE(tiny_bytes.ok());
  ASSERT_TRUE(mlp_bytes.ok());
  EXPECT_GT(*tiny_bytes, 0u);
  EXPECT_EQ(*mlp_bytes, 0u);  // nothing of its own committed yet

  DE_ASSERT_OK((*mlp)->PreprocessAllLayers());
  mlp_bytes = (*mlp)->PersistedIndexBytes();
  ASSERT_TRUE(mlp_bytes.ok());
  EXPECT_GT(*mlp_bytes, 0u);
  auto tiny_after = (*tiny)->PersistedIndexBytes();
  ASSERT_TRUE(tiny_after.ok());
  EXPECT_EQ(*tiny_after, *tiny_bytes);
}

// --------------------------- QueryContext plumbing -------------------------

TEST(DeepEverestQueryContextTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  TinySystem sys(40, 49, 8);
  TempDir dir("de");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  auto de = DeepEverest::Create(sys.model.get(), &sys.dataset, &store.value(),
                                SmallOptions());
  ASSERT_TRUE(de.ok());
  const NeuronGroup group{sys.model->activation_layers()[0], {0, 1}};

  QueryContext ctx;
  ctx.SetDeadlineAfter(-1.0);  // already past
  QuerySpec spec;
  spec.kind = QuerySpec::Kind::kHighest;
  spec.k = 5;
  spec.layer = group.layer;
  spec.neurons = group.neurons;
  auto result = (*de)->ExecuteSpec(spec, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // Rejected before any inference: the context receipt stays empty.
  EXPECT_EQ(ctx.receipt.inputs_run, 0);
}

TEST(DeepEverestQueryContextTest, CancelledContextReturnsCancelled) {
  TinySystem sys(40, 50, 8);
  TempDir dir("de");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  auto de = DeepEverest::Create(sys.model.get(), &sys.dataset, &store.value(),
                                SmallOptions());
  ASSERT_TRUE(de.ok());
  const NeuronGroup group{sys.model->activation_layers()[0], {0, 1}};

  QueryContext ctx;
  ctx.Cancel();
  QuerySpec spec;
  spec.kind = QuerySpec::Kind::kHighest;
  spec.k = 5;
  spec.layer = group.layer;
  spec.neurons = group.neurons;
  auto result = (*de)->ExecuteSpec(spec, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(DeepEverestQueryContextTest, ReceiptAccumulatesQueryCostIncludingBuild) {
  TinySystem sys(40, 51, 8);
  TempDir dir("de");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  auto de = DeepEverest::Create(sys.model.get(), &sys.dataset, &store.value(),
                                SmallOptions());
  ASSERT_TRUE(de.ok());
  const NeuronGroup group{sys.model->activation_layers()[1], {1, 3}};

  // Cold layer: the query triggers the §4.6 index build, whose inference is
  // charged to this query's context receipt along with its own.
  QueryContext cold_ctx;
  QuerySpec spec;
  spec.kind = QuerySpec::Kind::kHighest;
  spec.k = 5;
  spec.layer = group.layer;
  spec.neurons = group.neurons;
  auto cold = (*de)->ExecuteSpec(spec, &cold_ctx);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->stats.inputs_run, 40);
  EXPECT_EQ(cold_ctx.receipt.inputs_run, 40);

  // Warm layer: NTA only; result stats equal the receipt delta, and the
  // per-query stats never leak another query's work.
  QueryContext warm_ctx;
  auto warm = (*de)->ExecuteSpec(spec, &warm_ctx);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->stats.inputs_run, warm_ctx.receipt.inputs_run);
  EXPECT_LT(warm->stats.inputs_run, 40);
}

}  // namespace
}  // namespace core
}  // namespace deepeverest
