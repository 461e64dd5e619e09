// Cross-checks DeepEverest and every baseline engine against ReprocessAll
// (the reference) and verifies their storage / caching behaviours.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "baselines/lru_cache.h"
#include "baselines/preprocess_all.h"
#include "baselines/priority_cache.h"
#include "baselines/reprocess_all.h"
#include "core/deepeverest.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace baselines {
namespace {

using core::HighestQuery;
using core::MostSimilarQuery;
using core::NeuronGroup;
using core::QueryEngine;
using core::QuerySpec;
using testing_util::ExpectValidTopK;
using testing_util::TempDir;
using testing_util::TinySystem;

TEST(PreprocessAllTest, QueriesRequireNoInferenceAfterPreprocess) {
  TinySystem sys(30, 71, 8);
  TempDir dir("pa");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  PreprocessAll engine(sys.engine.get(), &store.value());
  DE_ASSERT_OK(engine.Preprocess());
  EXPECT_GT(engine.preprocess_inference_seconds(), 0.0);

  const int64_t after_preprocess = sys.engine->stats().inputs_run;
  EXPECT_EQ(after_preprocess, 30);  // one pass over the dataset

  const int layer = sys.model->activation_layers()[1];
  auto result = engine.ExecuteSpec(MostSimilarQuery(2, {layer, {0, 3}}, 5));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(sys.engine->stats().inputs_run, after_preprocess);  // no new
  EXPECT_EQ(result->entries.size(), 5u);
}

TEST(PreprocessAllTest, QueryBeforePreprocessFails) {
  TinySystem sys(10, 72, 8);
  TempDir dir("pa");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  PreprocessAll engine(sys.engine.get(), &store.value());
  const int layer = sys.model->activation_layers()[0];
  EXPECT_TRUE(engine.ExecuteSpec(HighestQuery({layer, {0}}, 3))
                  .status()
                  .IsFailedPrecondition());
}

TEST(PreprocessAllTest, StorageIsFullMaterialization) {
  TinySystem sys(20, 73, 8);
  TempDir dir("pa");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  PreprocessAll engine(sys.engine.get(), &store.value());
  DE_ASSERT_OK(engine.Preprocess());
  int64_t total_neurons = 0;
  for (int layer = 0; layer < sys.model->num_layers(); ++layer) {
    total_neurons += sys.model->NeuronCount(layer);
  }
  auto bytes = engine.StorageBytes();
  ASSERT_TRUE(bytes.ok());
  EXPECT_GE(*bytes, static_cast<uint64_t>(total_neurons) * 20 * 4);
}

// One parity loop over every engine behind core::QueryEngine: each answers
// highest, most-similar by id and most-similar by activation vector under
// l1, l2 and linf as ReprocessAll (the reference) does.
TEST(AllEnginesTest, EveryEngineMatchesReprocessAll) {
  TinySystem sys(40, 74, 8);
  TempDir dir("all");
  auto store_de = storage::FileStore::Open(dir.path() + "/de");
  auto store_pa = storage::FileStore::Open(dir.path() + "/pa");
  auto store_lru = storage::FileStore::Open(dir.path() + "/lru");
  auto store_pri = storage::FileStore::Open(dir.path() + "/pri");
  ASSERT_TRUE(store_de.ok());
  ASSERT_TRUE(store_pa.ok());
  ASSERT_TRUE(store_lru.ok());
  ASSERT_TRUE(store_pri.ok());

  core::DeepEverestOptions options;
  options.batch_size = 8;
  options.num_partitions_override = 4;
  auto de = core::DeepEverest::Create(sys.model.get(), &sys.dataset,
                                      &store_de.value(), options);
  ASSERT_TRUE(de.ok());
  DE_ASSERT_OK((*de)->PreprocessAllLayers());
  ReprocessAll reference(sys.engine.get());
  PreprocessAll preprocess(sys.engine.get(), &store_pa.value());
  LruCacheEngine lru(sys.engine.get(), &store_lru.value(), 1 << 24);
  PriorityCacheEngine priority(sys.engine.get(), &store_pri.value(), 1 << 20);
  DE_ASSERT_OK(preprocess.Preprocess());
  DE_ASSERT_OK(priority.Preprocess());

  const std::vector<QueryEngine*> engines = {de->get(), &preprocess, &lru,
                                             &priority};
  const std::vector<std::string> names = {"DeepEverest", "PreprocessAll",
                                          "LRU Cache", "Priority Cache"};
  const int layer = sys.model->activation_layers()[1];
  const NeuronGroup group{layer, {2, 5, 8}};

  QuerySpec by_vector = MostSimilarQuery(-1, group, 7);
  by_vector.target_activations = {0.5f, 1.0f, 0.25f};
  const std::vector<QuerySpec> queries = {
      HighestQuery(group, 7), MostSimilarQuery(6, group, 7), by_vector};
  for (size_t e = 0; e < engines.size(); ++e) {
    QueryEngine* engine = engines[e];
    EXPECT_EQ(engine->name(), names[e]);
    for (const core::DistanceKind distance :
         {core::DistanceKind::kL1, core::DistanceKind::kL2,
          core::DistanceKind::kLInf}) {
      for (QuerySpec spec : queries) {
        spec.distance = distance;
        SCOPED_TRACE(engine->name() + ": " + spec.ToString());
        auto expected = reference.ExecuteSpec(spec);
        ASSERT_TRUE(expected.ok()) << expected.status().ToString();
        auto actual = engine->ExecuteSpec(spec);
        ASSERT_TRUE(actual.ok()) << actual.status().ToString();
        ExpectValidTopK(
            *expected, *actual,
            /*smaller_is_better=*/spec.kind == QuerySpec::Kind::kMostSimilar);
      }
    }
    // Every engine but ReprocessAll stores something: DeepEverest its
    // persisted indexes, the others activation matrices.
    auto bytes = engine->StorageBytes();
    ASSERT_TRUE(bytes.ok());
    EXPECT_GT(*bytes, 0u);
  }
  auto reference_bytes = reference.StorageBytes();
  ASSERT_TRUE(reference_bytes.ok());
  EXPECT_EQ(*reference_bytes, 0u);
}

// Every engine range-checks a query against the model and dataset before it
// reads an activation row.
TEST(AllEnginesTest, OutOfRangeQueriesAreRejected) {
  TinySystem sys(40, 79, 8);
  TempDir dir("oor");
  auto store_de = storage::FileStore::Open(dir.path() + "/de");
  auto store_pa = storage::FileStore::Open(dir.path() + "/pa");
  auto store_lru = storage::FileStore::Open(dir.path() + "/lru");
  auto store_pri = storage::FileStore::Open(dir.path() + "/pri");
  ASSERT_TRUE(store_de.ok());
  ASSERT_TRUE(store_pa.ok());
  ASSERT_TRUE(store_lru.ok());
  ASSERT_TRUE(store_pri.ok());
  core::DeepEverestOptions options;
  options.batch_size = 8;
  auto de = core::DeepEverest::Create(sys.model.get(), &sys.dataset,
                                      &store_de.value(), options);
  ASSERT_TRUE(de.ok());
  ReprocessAll reprocess(sys.engine.get());
  PreprocessAll preprocess(sys.engine.get(), &store_pa.value());
  LruCacheEngine lru(sys.engine.get(), &store_lru.value(), 1 << 24);
  PriorityCacheEngine priority(sys.engine.get(), &store_pri.value(), 1 << 20);
  DE_ASSERT_OK(preprocess.Preprocess());
  DE_ASSERT_OK(priority.Preprocess());

  const int layer = sys.model->activation_layers()[0];
  const int64_t neurons = sys.model->NeuronCount(layer);
  const std::vector<QuerySpec> bad = {
      // One past the layer's last neuron: the next row's first value.
      HighestQuery({layer, {0, neurons}}, 3),
      MostSimilarQuery(2, {layer, {neurons}}, 3),
      HighestQuery({layer, {int64_t{1} << 32}}, 3),
      HighestQuery({sys.model->num_layers(), {0}}, 3),
      MostSimilarQuery(40, {layer, {0, 1}}, 3),
  };
  for (QueryEngine* engine : std::vector<QueryEngine*>{
           de->get(), &reprocess, &preprocess, &lru, &priority}) {
    for (const QuerySpec& spec : bad) {
      auto result = engine->ExecuteSpec(spec);
      EXPECT_TRUE(result.status().IsOutOfRange())
          << engine->name() << ": " << spec.ToString() << " -> "
          << result.status().ToString();
    }
  }

  // Baselines answer explicit groups only; DeepEverest resolves a derived
  // TOP m NEURONS group.
  QuerySpec derived = HighestQuery({layer, {}}, 3);
  derived.top_neurons = 2;
  derived.top_of = 0;
  for (QueryEngine* engine :
       std::vector<QueryEngine*>{&reprocess, &preprocess, &lru, &priority}) {
    auto result = engine->ExecuteSpec(derived);
    EXPECT_TRUE(result.status().IsInvalidArgument())
        << engine->name() << ": " << result.status().ToString();
  }
  DE_EXPECT_OK((*de)->ExecuteSpec(derived).status());
}

TEST(LruCacheTest, HitAvoidsInferenceMissPaysFullPass) {
  TinySystem sys(25, 75, 8);
  TempDir dir("lru");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  LruCacheEngine lru(sys.engine.get(), &store.value(), 1 << 24);

  const int layer = sys.model->activation_layers()[0];
  const NeuronGroup group{layer, {0, 1}};
  auto first = lru.ExecuteSpec(HighestQuery(group, 3));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->stats.inputs_run, 25);  // miss: full pass
  EXPECT_EQ(lru.misses(), 1);

  auto second = lru.ExecuteSpec(HighestQuery(group, 3));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.inputs_run, 0);  // hit: disk only
  EXPECT_EQ(lru.hits(), 1);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsedLayer) {
  TinySystem sys(25, 76, 8);
  TempDir dir("lru");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  // Budget for roughly one layer (first activation layer: 16 neurons
  // * 25 inputs * 4 bytes = 1600 payload + header).
  LruCacheEngine lru(sys.engine.get(), &store.value(), 2000);

  const int layer_a = sys.model->activation_layers()[0];  // 16 neurons
  const int layer_b = sys.model->activation_layers()[1];  // 12 neurons
  ASSERT_TRUE(lru.ExecuteSpec(HighestQuery({layer_a, {0}}, 3)).ok());
  EXPECT_TRUE(lru.IsCached(layer_a));
  ASSERT_TRUE(lru.ExecuteSpec(HighestQuery({layer_b, {0}}, 3)).ok());
  // layer_b displaced layer_a under the small budget.
  EXPECT_TRUE(lru.IsCached(layer_b));
  EXPECT_FALSE(lru.IsCached(layer_a));
  // A budget violation never persists.
  auto bytes = lru.StorageBytes();
  ASSERT_TRUE(bytes.ok());
  EXPECT_LE(*bytes, 2000u);
}

TEST(LruCacheTest, ReadmissionAfterEvictionKeepsAccountingExact) {
  TinySystem sys(25, 78, 8);
  TempDir dir("lru");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  LruCacheEngine lru(sys.engine.get(), &store.value(), 2000);

  const int layer_a = sys.model->activation_layers()[0];
  const int layer_b = sys.model->activation_layers()[1];
  // Thrash a <-> b under a one-layer budget; recorded bytes must enter and
  // leave symmetrically, so the total never drifts and never exceeds the
  // budget at rest.
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(lru.ExecuteSpec(HighestQuery({layer_a, {0}}, 3)).ok());
    ASSERT_TRUE(lru.ExecuteSpec(HighestQuery({layer_b, {0}}, 3)).ok());
  }
  EXPECT_TRUE(lru.IsCached(layer_b));
  EXPECT_FALSE(lru.IsCached(layer_a));
  auto bytes = lru.StorageBytes();
  ASSERT_TRUE(bytes.ok());
  EXPECT_LE(*bytes, 2000u);
  // Exactly one resident layer: its recorded size, not an accumulation.
  EXPECT_EQ(*bytes, storage::ActivationStore::PersistedBytes(
                        sys.dataset.size(),
                        static_cast<uint64_t>(
                            sys.model->NeuronCount(layer_b))));
  // Evicting everything returns the accounting to zero.
  ASSERT_TRUE(lru.ExecuteSpec(HighestQuery({layer_a, {0}}, 3)).ok());
  EXPECT_FALSE(lru.IsCached(layer_b));
}

TEST(LruCacheTest, LayerLargerThanBudgetIsNotAdmitted) {
  TinySystem sys(25, 77, 8);
  TempDir dir("lru");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  const int layer_a = sys.model->activation_layers()[0];  // 16 neurons
  const int layer_b = sys.model->activation_layers()[1];  // 12 neurons
  const uint64_t bytes_b = storage::ActivationStore::PersistedBytes(
      sys.dataset.size(),
      static_cast<uint64_t>(sys.model->NeuronCount(layer_b)));
  const uint64_t bytes_a = storage::ActivationStore::PersistedBytes(
      sys.dataset.size(),
      static_cast<uint64_t>(sys.model->NeuronCount(layer_a)));
  ASSERT_LT(bytes_b, bytes_a);
  // Room for layer_b but not for layer_a.
  LruCacheEngine lru(sys.engine.get(), &store.value(), bytes_a - 1);

  ASSERT_TRUE(lru.ExecuteSpec(HighestQuery({layer_b, {0}}, 3)).ok());
  ASSERT_TRUE(lru.IsCached(layer_b));
  const uint64_t written = store->bytes_written();
  // layer_a is answered, but neither written to the cache nor allowed to
  // evict layer_b.
  auto miss = lru.ExecuteSpec(HighestQuery({layer_a, {0}}, 3));
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->stats.inputs_run, 25);
  EXPECT_FALSE(lru.IsCached(layer_a));
  EXPECT_TRUE(lru.IsCached(layer_b));
  EXPECT_EQ(store->bytes_written(), written);
  auto bytes = lru.StorageBytes();
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, bytes_b);
  // It stays a miss: every query of layer_a runs the full pass.
  auto again = lru.ExecuteSpec(HighestQuery({layer_a, {0}}, 3));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->stats.inputs_run, 25);
  EXPECT_EQ(lru.misses(), 3);
  EXPECT_EQ(lru.hits(), 0);
}

TEST(LruCacheTest, ConcurrentQueriesAreSafeAndCorrect) {
  TinySystem sys(30, 79, 8);
  TempDir dir("lru");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  LruCacheEngine lru(sys.engine.get(), &store.value(), 1 << 24);

  const std::vector<int>& layers = sys.model->activation_layers();
  auto expected_a = lru.ExecuteSpec(HighestQuery({layers[0], {0, 1}}, 5));
  auto expected_b = lru.ExecuteSpec(HighestQuery({layers[1], {0, 1}}, 5));
  ASSERT_TRUE(expected_a.ok());
  ASSERT_TRUE(expected_b.ok());

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        const bool use_a = (t + i) % 2 == 0;
        auto result = lru.ExecuteSpec(
            HighestQuery({use_a ? layers[0] : layers[1], {0, 1}}, 5));
        ASSERT_TRUE(result.ok());
        const auto& expected = use_a ? *expected_a : *expected_b;
        ASSERT_EQ(result->entries.size(), expected.entries.size());
        for (size_t r = 0; r < expected.entries.size(); ++r) {
          EXPECT_EQ(result->entries[r].input_id,
                    expected.entries[r].input_id);
          EXPECT_EQ(result->entries[r].value, expected.entries[r].value);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(lru.hits() + lru.misses(), 2 + 4 * 8);
}

TEST(PriorityCacheTest, ChoosesLayersUnderBudgetByBenefit) {
  TinySystem sys(30, 77, 8);
  TempDir dir("pri");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  PriorityCacheEngine priority(sys.engine.get(), &store.value(), 3000);
  DE_ASSERT_OK(priority.Preprocess());
  // Something was chosen, and the chosen layers respect the budget.
  EXPECT_FALSE(priority.chosen_layers().empty());
  auto bytes = priority.StorageBytes();
  ASSERT_TRUE(bytes.ok());
  EXPECT_LE(*bytes, 3000u);

  // Stored layers answer without inference; others recompute.
  const int stored = priority.chosen_layers().front();
  const int64_t before = sys.engine->stats().inputs_run;
  ASSERT_TRUE(priority.ExecuteSpec(HighestQuery({stored, {0}}, 3)).ok());
  EXPECT_EQ(sys.engine->stats().inputs_run, before);

  int missing = -1;
  for (int layer = 0; layer < sys.model->num_layers(); ++layer) {
    if (!priority.IsStored(layer)) missing = layer;
  }
  ASSERT_GE(missing, 0);
  ASSERT_TRUE(priority.ExecuteSpec(HighestQuery({missing, {0}}, 3)).ok());
  EXPECT_EQ(sys.engine->stats().inputs_run, before + 30);
}

TEST(ReprocessAllTest, EveryQueryPaysFullInference) {
  TinySystem sys(20, 78, 8);
  ReprocessAll engine(sys.engine.get());
  const int layer = sys.model->activation_layers()[0];
  auto r1 = engine.ExecuteSpec(HighestQuery({layer, {0, 1}}, 3));
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->stats.inputs_run, 20);
  auto r2 = engine.ExecuteSpec(MostSimilarQuery(1, {layer, {0, 1}}, 3));
  ASSERT_TRUE(r2.ok());
  // One full pass: the target's activations come from the same matrix.
  EXPECT_EQ(r2->stats.inputs_run, 20);
}

}  // namespace
}  // namespace baselines
}  // namespace deepeverest
