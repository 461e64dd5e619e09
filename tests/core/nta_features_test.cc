// Tests for NTA's extensions (paper section 6): θ-approximation,
// incremental result return, user-driven early stopping — plus IQA-backed
// execution correctness and inference-savings accounting.
#include <gtest/gtest.h>

#include "core/iqa_cache.h"
#include "core/nta.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace core {
namespace {

using testing_util::BruteForceMostSimilar;
using testing_util::ExpectValidTopK;
using testing_util::TinySystem;
using testing_util::RunNtaSimilar;

Result<LayerIndex> BuildIndexFor(nn::InferenceEngine* engine, int layer,
                                 const LayerIndexConfig& config) {
  const uint32_t n = engine->dataset().size();
  std::vector<uint32_t> ids(n);
  for (uint32_t i = 0; i < n; ++i) ids[i] = i;
  std::vector<std::vector<float>> rows;
  DE_RETURN_NOT_OK(engine->ComputeLayer(ids, layer, &rows));
  auto matrix = storage::LayerActivationMatrix::Make(n, rows[0].size());
  for (uint32_t i = 0; i < n; ++i) {
    std::copy(rows[i].begin(), rows[i].end(), matrix.MutableRow(i));
  }
  return LayerIndex::Build(matrix, config);
}

std::vector<float> TargetActs(nn::InferenceEngine* engine, int layer,
                              uint32_t target,
                              const std::vector<int64_t>& neurons) {
  std::vector<std::vector<float>> rows;
  DE_CHECK(engine->ComputeLayer({target}, layer, &rows).ok());
  std::vector<float> acts(neurons.size());
  for (size_t i = 0; i < neurons.size(); ++i) {
    acts[i] = rows[0][static_cast<size_t>(neurons[i])];
  }
  return acts;
}

TEST(ThetaApproximationTest, GuaranteeHoldsForAllReturnedEntries) {
  TinySystem sys(80, 21, 8);
  const int layer = sys.model->activation_layers()[1];
  auto index =
      BuildIndexFor(sys.engine.get(), layer, LayerIndexConfig{16, 0.1});
  ASSERT_TRUE(index.ok());

  const NeuronGroup group{layer, {2, 6, 10}};
  const uint32_t target = 17;
  const std::vector<float> target_acts =
      TargetActs(sys.engine.get(), layer, target, group.neurons);

  for (double theta : {0.5, 0.8, 0.95}) {
    NtaEngine nta(sys.engine.get(), &index.value());
    NtaOptions options;
    options.k = 10;
    options.theta = theta;
    auto approx = RunNtaSimilar(&nta, group, target, options);
    ASSERT_TRUE(approx.ok());
    ASSERT_EQ(approx->entries.size(), 10u);

    // θ-approximation definition (paper section 6): for every returned y
    // and every not-returned z, θ * dist(y) <= dist(z). Verify against a
    // brute-force computation of all distances.
    auto all = BruteForceMostSimilar(sys.engine.get(), group, target_acts,
                                     static_cast<int>(sys.dataset.size()) - 1,
                                     L2Distance(), true, target);
    ASSERT_TRUE(all.ok());
    std::set<uint32_t> returned;
    double max_returned = 0.0;
    for (const ResultEntry& e : approx->entries) {
      returned.insert(e.input_id);
      max_returned = std::max(max_returned, e.value);
    }
    for (const ResultEntry& z : all->entries) {
      if (returned.count(z.input_id) != 0) continue;
      EXPECT_LE(theta * max_returned, z.value + 1e-9)
          << "theta=" << theta << " violated by input " << z.input_id;
    }
  }
}

TEST(ThetaApproximationTest, LooserThetaRunsNoMoreInputs) {
  TinySystem sys(80, 22, 8);
  const int layer = sys.model->activation_layers()[1];
  auto index =
      BuildIndexFor(sys.engine.get(), layer, LayerIndexConfig{16, 0.0});
  ASSERT_TRUE(index.ok());
  const NeuronGroup group{layer, {1, 5}};

  int64_t exact_inputs = 0, approx_inputs = 0;
  {
    NtaEngine nta(sys.engine.get(), &index.value());
    NtaOptions options;
    options.k = 8;
    auto result = RunNtaSimilar(&nta, group, 3, options);
    ASSERT_TRUE(result.ok());
    exact_inputs = result->stats.inputs_run;
  }
  {
    NtaEngine nta(sys.engine.get(), &index.value());
    NtaOptions options;
    options.k = 8;
    options.theta = 0.5;
    auto result = RunNtaSimilar(&nta, group, 3, options);
    ASSERT_TRUE(result.ok());
    approx_inputs = result->stats.inputs_run;
  }
  EXPECT_LE(approx_inputs, exact_inputs);
}

TEST(IncrementalReturnTest, ConfirmedEntriesAreFinalAnswers) {
  TinySystem sys(60, 23, 8);
  const int layer = sys.model->activation_layers()[0];
  auto index =
      BuildIndexFor(sys.engine.get(), layer, LayerIndexConfig{8, 0.1});
  ASSERT_TRUE(index.ok());
  const NeuronGroup group{layer, {0, 7, 12}};

  NtaEngine nta(sys.engine.get(), &index.value());
  NtaOptions options;
  options.k = 10;
  std::vector<NtaProgress> snapshots;
  QueryContext ctx;
  ctx.on_progress = [&](const NtaProgress& p) {
    snapshots.push_back(p);
    return true;
  };
  auto result = RunNtaSimilar(&nta, group, 9, options, &ctx);
  ASSERT_TRUE(result.ok());

  // Every entry confirmed mid-run (dist <= threshold at that time) must be
  // present in the final result (incrementally returning results,
  // section 6).
  std::set<uint32_t> final_ids;
  for (const ResultEntry& e : result->entries) final_ids.insert(e.input_id);
  for (const NtaProgress& p : snapshots) {
    for (const ResultEntry& confirmed : p.confirmed) {
      EXPECT_TRUE(final_ids.count(confirmed.input_id) != 0)
          << "confirmed input " << confirmed.input_id
          << " missing from final answer";
    }
  }
  // Threshold must be non-decreasing over rounds (monotone expansion).
  for (size_t i = 1; i < snapshots.size(); ++i) {
    EXPECT_GE(snapshots[i].threshold, snapshots[i - 1].threshold - 1e-9);
  }
}

TEST(EarlyStoppingTest, UserStopReturnsCurrentTopWithGuarantee) {
  TinySystem sys(100, 24, 4);
  const int layer = sys.model->activation_layers()[1];
  auto index =
      BuildIndexFor(sys.engine.get(), layer, LayerIndexConfig{32, 0.0});
  ASSERT_TRUE(index.ok());
  const NeuronGroup group{layer, {3, 8}};
  const uint32_t target = 42;

  // Stop after the first round that has a full top-k.
  NtaEngine nta(sys.engine.get(), &index.value());
  NtaOptions options;
  options.k = 5;
  double theta_guarantee = 0.0;
  QueryContext ctx;
  ctx.on_progress = [&](const NtaProgress& p) {
    if (p.round >= 2 && p.kth_value < 1e18) {
      theta_guarantee = p.theta_guarantee;
      return false;  // user stops
    }
    return true;
  };
  auto stopped = RunNtaSimilar(&nta, group, target, options, &ctx);
  ASSERT_TRUE(stopped.ok());
  ASSERT_EQ(stopped->entries.size(), 5u);
  ASSERT_GT(theta_guarantee, 0.0);
  ASSERT_LE(theta_guarantee, 1.0);

  // The guarantee must hold against ground truth: θ * dist(y) <= dist(z)
  // for returned y, unreturned z.
  const std::vector<float> target_acts =
      TargetActs(sys.engine.get(), layer, target, group.neurons);
  auto all = BruteForceMostSimilar(sys.engine.get(), group, target_acts,
                                   static_cast<int>(sys.dataset.size()) - 1,
                                   L2Distance(), true, target);
  ASSERT_TRUE(all.ok());
  std::set<uint32_t> returned;
  double max_returned = 0.0;
  for (const ResultEntry& e : stopped->entries) {
    returned.insert(e.input_id);
    max_returned = std::max(max_returned, e.value);
  }
  for (const ResultEntry& z : all->entries) {
    if (returned.count(z.input_id) != 0) continue;
    EXPECT_LE(theta_guarantee * max_returned, z.value + 1e-9);
  }
}

TEST(IqaIntegrationTest, SecondQuerySameLayerUsesCache) {
  TinySystem sys(60, 25, 8);
  const int layer = sys.model->activation_layers()[1];
  auto index =
      BuildIndexFor(sys.engine.get(), layer, LayerIndexConfig{8, 0.0});
  ASSERT_TRUE(index.ok());
  IqaCache cache(1 << 24);

  NtaEngine nta(sys.engine.get(), &index.value());
  NtaOptions options;
  options.k = 10;
  QueryContext first_ctx;
  first_ctx.iqa = &cache;

  auto first =
      RunNtaSimilar(&nta, NeuronGroup{layer, {1, 4, 7}}, 5, options,
                    &first_ctx);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->stats.inputs_run, 0);

  // A related query over a *different* group in the same layer: the cache
  // holds full-layer rows, so repeated inputs cost nothing.
  QueryContext second_ctx;
  second_ctx.iqa = &cache;
  auto second = RunNtaSimilar(&nta, NeuronGroup{layer, {2, 4, 9}}, 5, options,
                              &second_ctx);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second->stats.iqa_hits, 0);
  EXPECT_LT(second->stats.inputs_run, first->stats.inputs_run);

  // And the answer remains exact.
  std::vector<float> target_acts =
      TargetActs(sys.engine.get(), layer, 5, {2, 4, 9});
  auto expected = BruteForceMostSimilar(sys.engine.get(),
                                        NeuronGroup{layer, {2, 4, 9}},
                                        target_acts, 10, L2Distance(), true,
                                        5);
  ASSERT_TRUE(expected.ok());
  ExpectValidTopK(*expected, *second, true);
}

TEST(IqaIntegrationTest, CacheDoesNotLeakAcrossLayers) {
  TinySystem sys(40, 26, 8);
  const int layer_a = sys.model->activation_layers()[0];
  const int layer_b = sys.model->activation_layers()[1];
  auto index_a =
      BuildIndexFor(sys.engine.get(), layer_a, LayerIndexConfig{4, 0.0});
  auto index_b =
      BuildIndexFor(sys.engine.get(), layer_b, LayerIndexConfig{4, 0.0});
  ASSERT_TRUE(index_a.ok());
  ASSERT_TRUE(index_b.ok());
  IqaCache cache(1 << 24);

  NtaOptions options;
  options.k = 5;
  NtaEngine nta_a(sys.engine.get(), &index_a.value());
  QueryContext ctx_a;
  ctx_a.iqa = &cache;
  auto first =
      RunNtaSimilar(&nta_a, NeuronGroup{layer_a, {0, 1}}, 2, options, &ctx_a);
  ASSERT_TRUE(first.ok());

  // Querying another layer must not hit layer_a's cached rows.
  NtaEngine nta_b(sys.engine.get(), &index_b.value());
  QueryContext ctx_b;
  ctx_b.iqa = &cache;
  auto second =
      RunNtaSimilar(&nta_b, NeuronGroup{layer_b, {0, 1}}, 2, options, &ctx_b);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.iqa_hits, 0);
}

TEST(InferenceSavingsTest, SmallerPartitionsRunFewerInputs) {
  // Table 3's monotone trend: more partitions => fewer inputs run by the
  // DNN at query time.
  TinySystem sys(128, 27, 4);
  const int layer = sys.model->activation_layers()[1];
  const NeuronGroup group{layer, {2, 5, 8}};
  int64_t prev = std::numeric_limits<int64_t>::max();
  for (int parts : {2, 8, 32}) {
    auto index = BuildIndexFor(sys.engine.get(), layer,
                               LayerIndexConfig{parts, 0.0});
    ASSERT_TRUE(index.ok());
    NtaEngine nta(sys.engine.get(), &index.value());
    NtaOptions options;
    options.k = 5;
    auto result = RunNtaSimilar(&nta, group, 11, options);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->stats.inputs_run, prev)
        << "nPartitions=" << parts;
    prev = result->stats.inputs_run;
  }
  // With 32 partitions the query must touch well under the whole dataset.
  EXPECT_LT(prev, 128);
}

}  // namespace
}  // namespace core
}  // namespace deepeverest
