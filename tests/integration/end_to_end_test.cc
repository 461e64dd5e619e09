// End-to-end integration tests: a realistic multi-query interpretation
// session through the full stack (facade + incremental indexing + NTA +
// MAI + IQA + persistence), cross-checked against baseline engines, plus
// session restart on a warm store.
#include <gtest/gtest.h>

#include "baselines/reprocess_all.h"
#include "bench_util/query_gen.h"
#include "core/deepeverest.h"
#include "nn/model_zoo.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace {

using testing_util::ExpectValidTopK;
using testing_util::TempDir;

struct Session {
  nn::ModelPtr model;
  data::Dataset dataset;
  std::unique_ptr<storage::FileStore> store;
  std::unique_ptr<core::DeepEverest> de;
  std::unique_ptr<nn::InferenceEngine> reference_engine;
  std::unique_ptr<nn::InferenceEngine> generator_engine;

  explicit Session(const std::string& dir, bool iqa = true)
      : model(nn::MakeMiniVgg(9)), dataset(MakeData()) {
    auto opened = storage::FileStore::Open(dir);
    EXPECT_TRUE(opened.ok());
    store = std::make_unique<storage::FileStore>(std::move(*opened));
    core::DeepEverestOptions options;
    options.batch_size = 16;
    options.storage_budget_fraction = 0.2;
    options.enable_iqa = iqa;
    auto created = core::DeepEverest::Create(model.get(), &dataset,
                                             store.get(), options);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    de = std::move(*created);
    reference_engine =
        std::make_unique<nn::InferenceEngine>(model.get(), &dataset, 16);
    generator_engine =
        std::make_unique<nn::InferenceEngine>(model.get(), &dataset, 16);
  }

  static data::Dataset MakeData() {
    data::SyntheticImageConfig config;
    config.num_inputs = 120;
    config.seed = 99;
    return data::MakeSyntheticImages(config);
  }
};

TEST(EndToEndTest, MixedWorkloadMatchesReprocessAllEverywhere) {
  TempDir dir("e2e");
  Session session(dir.path());
  baselines::ReprocessAll reference(session.reference_engine.get());

  bench_util::WorkloadSpec spec;
  spec.num_queries = 12;
  spec.seed = 5;
  const std::vector<int> layers = bench_util::GenerateLayerSequence(
      session.model->activation_layers(), spec);
  Rng rng(77);
  for (size_t q = 0; q < layers.size(); ++q) {
    const uint32_t target =
        static_cast<uint32_t>(rng.NextUint64(session.dataset.size()));
    auto group = bench_util::MakeNeuronGroup(
        session.generator_engine.get(), target, layers[q],
        q % 3 == 0 ? bench_util::GroupKind::kTop
                   : bench_util::GroupKind::kRandHigh,
        3, &rng);
    ASSERT_TRUE(group.ok());

    const bool highest = q % 4 == 0;
    const core::QuerySpec spec =
        highest ? core::HighestQuery(*group, 10)
                : core::MostSimilarQuery(target, *group, 10);
    auto actual = session.de->ExecuteSpec(spec);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    auto expected = reference.ExecuteSpec(spec);
    ASSERT_TRUE(expected.ok());
    ExpectValidTopK(*expected, *actual, /*smaller_is_better=*/!highest);
  }
}

TEST(EndToEndTest, WarmRestartReusesPersistedIndexes) {
  TempDir dir("e2e-restart");
  const int layer = nn::MakeMiniVgg(9)->activation_layers()[2];
  const core::NeuronGroup group{layer, {4, 77, 300}};

  // Session 1 indexes the layer.
  {
    Session session(dir.path());
    ASSERT_TRUE(
        session.de->ExecuteSpec(core::MostSimilarQuery(3, group, 5)).ok());
    ASSERT_TRUE(session.de->index_manager()->IsIndexed(layer));
  }
  // Session 2 (fresh objects, same store) must not re-run the indexing
  // pass: its first query touches far fewer inputs than the dataset.
  {
    Session session(dir.path());
    EXPECT_TRUE(session.de->index_manager()->IsIndexed(layer));
    auto result = session.de->ExecuteSpec(core::MostSimilarQuery(3, group, 5));
    ASSERT_TRUE(result.ok());
    EXPECT_LT(result->stats.inputs_run,
              static_cast<int64_t>(session.dataset.size()));
  }
}

TEST(EndToEndTest, StatsAccumulateSanely) {
  TempDir dir("e2e-stats");
  Session session(dir.path());
  const int layer = session.model->activation_layers()[3];
  const core::NeuronGroup group{layer, {1, 2, 3}};
  auto first = session.de->ExecuteSpec(core::MostSimilarQuery(0, group, 5));
  ASSERT_TRUE(first.ok());
  // First query = index build: full dataset + the target pass.
  EXPECT_GE(first->stats.inputs_run,
            static_cast<int64_t>(session.dataset.size()));
  EXPECT_GT(first->stats.wall_seconds, 0.0);
  EXPECT_GT(first->stats.simulated_gpu_seconds, 0.0);

  auto second = session.de->ExecuteSpec(core::MostSimilarQuery(1, group, 5));
  ASSERT_TRUE(second.ok());
  EXPECT_LT(second->stats.inputs_run, first->stats.inputs_run);
}

TEST(EndToEndTest, ThetaApproximationThroughFacade) {
  TempDir dir("e2e-theta");
  Session session(dir.path(), /*iqa=*/false);
  const int layer = session.model->activation_layers()[2];
  auto top_neurons = session.de->MaximallyActivatedNeurons(7, layer, 4);
  ASSERT_TRUE(top_neurons.ok());
  const core::NeuronGroup group{layer, *top_neurons};
  // Build the index.
  ASSERT_TRUE(session.de->ExecuteSpec(core::HighestQuery(group, 1)).ok());

  core::QuerySpec spec;
  spec.kind = core::QuerySpec::Kind::kMostSimilar;
  spec.k = 8;
  spec.layer = group.layer;
  spec.neurons = group.neurons;
  spec.target_id = 7;
  auto exact_result = session.de->ExecuteSpec(spec);
  ASSERT_TRUE(exact_result.ok());

  core::QuerySpec approx = spec;
  approx.theta = 0.6;
  auto approx_result = session.de->ExecuteSpec(approx);
  ASSERT_TRUE(approx_result.ok());
  EXPECT_LE(approx_result->stats.inputs_run, exact_result->stats.inputs_run);
  // θ guarantee against the exact worst distance.
  EXPECT_LE(0.6 * approx_result->entries.back().value,
            exact_result->entries.back().value + 1e-9);
}

}  // namespace
}  // namespace deepeverest
