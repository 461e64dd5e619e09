// Property-style oracle tests: across sweeps of dataset seeds, group sizes,
// k, distance functions, partition counts, and MAI ratios, NTA must return
// exactly the same top-k answer (value-wise; ties may swap ids) as a brute
// force scan over every input — with and without the MAI fast path and the
// IQA cache.
#include <tuple>

#include <gtest/gtest.h>

#include "core/nta.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace core {
namespace {

using testing_util::BruteForceHighest;
using testing_util::BruteForceMostSimilar;
using testing_util::ExpectValidTopK;
using testing_util::TinySystem;

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

// (seed, group_size, k, num_partitions, mai_ratio, distance kind)
using OracleParam = std::tuple<uint64_t, int, int, int, double, DistanceKind>;
using testing_util::RunNta;
using testing_util::RunNtaSimilar;

class NtaOracleTest : public ::testing::TestWithParam<OracleParam> {};

TEST_P(NtaOracleTest, MostSimilarMatchesBruteForce) {
  const auto [seed, group_size, k, num_partitions, mai_ratio, dist_kind] =
      GetParam();
  TinySystem sys(60, seed, /*batch_size=*/8);
  const int layer = sys.model->activation_layers()[1];  // 12 neurons

  auto index = BuildIndexFor(sys.engine.get(), layer,
                             LayerIndexConfig{num_partitions, mai_ratio});
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  auto dist = MakeDistance(dist_kind, std::vector<double>(group_size, 1.0));
  ASSERT_TRUE(dist.ok());

  Rng rng(seed * 31 + 7);
  for (int trial = 0; trial < 3; ++trial) {
    NeuronGroup group;
    group.layer = layer;
    for (size_t pick : rng.SampleWithoutReplacement(
             static_cast<size_t>(sys.model->NeuronCount(layer)),
             static_cast<size_t>(group_size))) {
      group.neurons.push_back(static_cast<int64_t>(pick));
    }
    const uint32_t target =
        static_cast<uint32_t>(rng.NextUint64(sys.dataset.size()));

    NtaEngine nta(sys.engine.get(), &index.value());
    NtaOptions options;
    options.k = k;
    options.dist = *dist;
    auto actual = RunNtaSimilar(&nta, group, target, options);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();

    // Oracle.
    std::vector<std::vector<float>> target_rows;
    DE_ASSERT_OK(sys.engine->ComputeLayer({target}, layer, &target_rows));
    std::vector<float> target_acts(group.neurons.size());
    for (size_t i = 0; i < group.neurons.size(); ++i) {
      target_acts[i] = target_rows[0][static_cast<size_t>(group.neurons[i])];
    }
    auto expected = BruteForceMostSimilar(sys.engine.get(), group, target_acts,
                                          k, *dist, /*exclude_target=*/true,
                                          target);
    ASSERT_TRUE(expected.ok());
    ExpectValidTopK(*expected, *actual, /*smaller_is_better=*/true);

    // NTA must never run more inputs than the whole dataset.
    EXPECT_LE(actual->stats.inputs_run,
              static_cast<int64_t>(sys.dataset.size()));
  }
}

TEST_P(NtaOracleTest, HighestMatchesBruteForce) {
  const auto [seed, group_size, k, num_partitions, mai_ratio, dist_kind] =
      GetParam();
  TinySystem sys(60, seed + 1000, /*batch_size=*/8);
  const int layer = sys.model->activation_layers()[0];  // 16 neurons

  auto index = BuildIndexFor(sys.engine.get(), layer,
                             LayerIndexConfig{num_partitions, mai_ratio});
  ASSERT_TRUE(index.ok());
  auto dist = MakeDistance(dist_kind, std::vector<double>(group_size, 1.0));
  ASSERT_TRUE(dist.ok());

  Rng rng(seed * 17 + 3);
  for (int trial = 0; trial < 3; ++trial) {
    NeuronGroup group;
    group.layer = layer;
    for (size_t pick : rng.SampleWithoutReplacement(
             static_cast<size_t>(sys.model->NeuronCount(layer)),
             static_cast<size_t>(group_size))) {
      group.neurons.push_back(static_cast<int64_t>(pick));
    }
    NtaEngine nta(sys.engine.get(), &index.value());
    NtaOptions options;
    options.k = k;
    options.dist = *dist;
    auto actual = RunNta(&nta, group, QuerySpec::Kind::kHighest, -1, {},
                         options);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    auto expected = BruteForceHighest(sys.engine.get(), group, k, *dist);
    ASSERT_TRUE(expected.ok());
    ExpectValidTopK(*expected, *actual, /*smaller_is_better=*/false);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NtaOracleTest,
    ::testing::Combine(
        ::testing::Values(uint64_t{1}, uint64_t{2}, uint64_t{3}),
        ::testing::Values(1, 3, 6),          // group size
        ::testing::Values(1, 5, 20),         // k
        ::testing::Values(2, 4, 16),         // num partitions
        ::testing::Values(0.0, 0.1, 0.3),    // MAI ratio
        ::testing::Values(DistanceKind::kL1, DistanceKind::kL2,
                          DistanceKind::kLInf)));

TEST(NtaOracleEdgeTest, KLargerThanDatasetReturnsAllButTarget) {
  TinySystem sys(12, 9, 4);
  const int layer = sys.model->activation_layers()[0];
  auto index =
      BuildIndexFor(sys.engine.get(), layer, LayerIndexConfig{4, 0.0});
  ASSERT_TRUE(index.ok());
  NtaEngine nta(sys.engine.get(), &index.value());
  NtaOptions options;
  options.k = 50;  // > dataset size
  auto result = RunNtaSimilar(&nta, NeuronGroup{layer, {0, 1}}, 3, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->entries.size(), 11u);  // 12 inputs minus the target
}

TEST(NtaOracleEdgeTest, SinglePartitionDegeneratesToFullScan) {
  TinySystem sys(30, 10, 8);
  const int layer = sys.model->activation_layers()[0];
  auto index =
      BuildIndexFor(sys.engine.get(), layer, LayerIndexConfig{1, 0.0});
  ASSERT_TRUE(index.ok());
  NtaEngine nta(sys.engine.get(), &index.value());
  NtaOptions options;
  options.k = 5;
  auto result = RunNtaSimilar(&nta, NeuronGroup{layer, {0, 3, 5}}, 0, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->entries.size(), 5u);
  EXPECT_EQ(result->stats.inputs_run, 30);  // everything in one partition
}

TEST(NtaOracleEdgeTest, ConstantNeuronHandled) {
  // A neuron whose activation is identical for every input (dead ReLU) must
  // not break partition ordering or termination.
  TinySystem sys(40, 11, 8);
  const int layer = sys.model->activation_layers()[2];  // late, 8 neurons
  // Find a dead neuron if any; otherwise use neuron 0 anyway.
  std::vector<uint32_t> ids(40);
  for (uint32_t i = 0; i < 40; ++i) ids[i] = i;
  std::vector<std::vector<float>> rows;
  DE_ASSERT_OK(sys.engine->ComputeLayer(ids, layer, &rows));
  int64_t dead = 0;
  for (int64_t n = 0; n < sys.model->NeuronCount(layer); ++n) {
    bool all_zero = true;
    for (uint32_t i = 0; i < 40; ++i) {
      if (rows[i][static_cast<size_t>(n)] != 0.0f) all_zero = false;
    }
    if (all_zero) {
      dead = n;
      break;
    }
  }
  auto index =
      BuildIndexFor(sys.engine.get(), layer, LayerIndexConfig{4, 0.2});
  ASSERT_TRUE(index.ok());
  NtaEngine nta(sys.engine.get(), &index.value());
  NtaOptions options;
  options.k = 4;
  NeuronGroup group{layer, {dead, (dead + 1) % 8}};
  auto actual = RunNtaSimilar(&nta, group, 5, options);
  ASSERT_TRUE(actual.ok());

  std::vector<float> target_acts = {
      rows[5][static_cast<size_t>(group.neurons[0])],
      rows[5][static_cast<size_t>(group.neurons[1])]};
  auto expected =
      BruteForceMostSimilar(sys.engine.get(), group, target_acts, 4,
                            L2Distance(), /*exclude_target=*/true, 5);
  ASSERT_TRUE(expected.ok());
  ExpectValidTopK(*expected, *actual, true);
}

TEST(NtaOracleEdgeTest, ExternalTargetActivations) {
  // Most-similar against an out-of-dataset activation vector.
  TinySystem sys(50, 12, 8);
  const int layer = sys.model->activation_layers()[1];
  auto index =
      BuildIndexFor(sys.engine.get(), layer, LayerIndexConfig{8, 0.1});
  ASSERT_TRUE(index.ok());
  NtaEngine nta(sys.engine.get(), &index.value());
  NtaOptions options;
  options.k = 7;
  NeuronGroup group{layer, {1, 4, 9}};
  const std::vector<float> probe = {0.5f, 0.0f, 1.25f};
  auto actual = RunNta(&nta, group, QuerySpec::Kind::kMostSimilar, -1, probe,
                       options);
  ASSERT_TRUE(actual.ok());
  auto expected =
      BruteForceMostSimilar(sys.engine.get(), group, probe, 7, L2Distance(),
                            /*exclude_target=*/false, 0);
  ASSERT_TRUE(expected.ok());
  ExpectValidTopK(*expected, *actual, true);
}

TEST(NtaOracleEdgeTest, ValidationErrors) {
  TinySystem sys(10, 13, 4);
  const int layer = sys.model->activation_layers()[0];
  auto index =
      BuildIndexFor(sys.engine.get(), layer, LayerIndexConfig{2, 0.0});
  ASSERT_TRUE(index.ok());
  NtaEngine nta(sys.engine.get(), &index.value());
  NtaOptions options;
  options.k = 3;

  // Empty group.
  EXPECT_FALSE(RunNtaSimilar(&nta, NeuronGroup{layer, {}}, 0, options).ok());
  // Neuron out of range.
  EXPECT_FALSE(
      RunNtaSimilar(&nta, NeuronGroup{layer, {99999}}, 0, options).ok());
  // Target out of range.
  EXPECT_FALSE(RunNtaSimilar(&nta, NeuronGroup{layer, {0}}, 999, options).ok());
  // k < 1.
  options.k = 0;
  EXPECT_FALSE(RunNtaSimilar(&nta, NeuronGroup{layer, {0}}, 0, options).ok());
  // Bad theta.
  options.k = 3;
  options.theta = 0.0;
  EXPECT_FALSE(RunNtaSimilar(&nta, NeuronGroup{layer, {0}}, 0, options).ok());
  // Index/layer mismatch.
  options.theta = 1.0;
  const int other_layer = sys.model->activation_layers()[1];
  EXPECT_FALSE(
      RunNtaSimilar(&nta, NeuronGroup{other_layer, {0}}, 0, options).ok());
}

}  // namespace
}  // namespace core
}  // namespace deepeverest
