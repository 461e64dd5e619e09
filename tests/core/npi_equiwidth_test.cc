// Tests for the equi-width partitioning scheme (ablation of the paper's
// equi-depth design choice): geometry, skew behaviour, and NTA correctness
// on indexes with empty partitions.
#include <gtest/gtest.h>

#include "core/nta.h"
#include "core/npi.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace core {
namespace {

using testing_util::BruteForceHighest;
using testing_util::BruteForceMostSimilar;
using testing_util::ExpectValidTopK;
using testing_util::TinySystem;
using testing_util::RunNta;
using testing_util::RunNtaSimilar;

storage::LayerActivationMatrix UniformMatrix() {
  // Values 0..9 over a single neuron: equi-width with 5 partitions gives
  // two inputs per partition, highest values in partition 0.
  auto m = storage::LayerActivationMatrix::Make(10, 1);
  for (uint32_t i = 0; i < 10; ++i) {
    m.MutableRow(i)[0] = static_cast<float>(i);
  }
  return m;
}

TEST(EquiWidthTest, UniformValuesSplitEvenly) {
  LayerIndexConfig config;
  config.num_partitions = 5;
  config.scheme = PartitionScheme::kEquiWidth;
  auto index = LayerIndex::Build(UniformMatrix(), config);
  ASSERT_TRUE(index.ok());
  // Value 9 -> partition 0; value 0 -> partition 4.
  EXPECT_EQ(index->GetPid(0, 9), 0u);
  EXPECT_EQ(index->GetPid(0, 8), 0u);
  EXPECT_EQ(index->GetPid(0, 0), 4u);
  EXPECT_EQ(index->GetPid(0, 1), 4u);
  EXPECT_FLOAT_EQ(index->UpperBound(0, 0), 9.0f);
  EXPECT_FLOAT_EQ(index->LowerBound(0, 4), 0.0f);
}

TEST(EquiWidthTest, SkewConcentratesInputs) {
  // Heavy skew: 99 zeros and one huge value. Equi-width puts all zeros in
  // the last partition and leaves the middle empty — the failure mode that
  // motivates equi-depth (§4.3).
  auto m = storage::LayerActivationMatrix::Make(100, 1);
  for (uint32_t i = 0; i < 99; ++i) m.MutableRow(i)[0] = 0.0f;
  m.MutableRow(99)[0] = 100.0f;
  LayerIndexConfig config;
  config.num_partitions = 8;
  config.scheme = PartitionScheme::kEquiWidth;
  auto index = LayerIndex::Build(m, config);
  ASSERT_TRUE(index.ok());
  std::vector<uint32_t> ids;
  index->GetInputIds(0, 7, &ids);
  EXPECT_EQ(ids.size(), 99u);  // every zero lands in the last partition
  ids.clear();
  index->GetInputIds(0, 3, &ids);
  EXPECT_TRUE(ids.empty());  // middle partitions empty
  // Equi-depth instead balances them.
  config.scheme = PartitionScheme::kEquiDepth;
  auto depth_index = LayerIndex::Build(m, config);
  ASSERT_TRUE(depth_index.ok());
  ids.clear();
  depth_index->GetInputIds(0, 3, &ids);
  EXPECT_GT(ids.size(), 10u);
}

TEST(EquiWidthTest, ConstantNeuronSinglePartition) {
  auto m = storage::LayerActivationMatrix::Make(6, 1);
  for (uint32_t i = 0; i < 6; ++i) m.MutableRow(i)[0] = 2.5f;
  LayerIndexConfig config;
  config.num_partitions = 4;
  config.scheme = PartitionScheme::kEquiWidth;
  auto index = LayerIndex::Build(m, config);
  ASSERT_TRUE(index.ok());
  for (uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(index->GetPid(0, i), 0u);
  }
}

TEST(EquiWidthTest, MaiRequiresEquiDepth) {
  LayerIndexConfig config;
  config.num_partitions = 4;
  config.mai_ratio = 0.2;
  config.scheme = PartitionScheme::kEquiWidth;
  EXPECT_TRUE(
      LayerIndex::Build(UniformMatrix(), config).status().IsInvalidArgument());
}

TEST(EquiWidthTest, NtaRemainsExactWithEmptyPartitions) {
  TinySystem sys(80, 55, 8);
  const int layer = sys.model->activation_layers()[1];
  const uint32_t n = sys.dataset.size();
  std::vector<uint32_t> ids(n);
  for (uint32_t i = 0; i < n; ++i) ids[i] = i;
  std::vector<std::vector<float>> rows;
  DE_ASSERT_OK(sys.engine->ComputeLayer(ids, layer, &rows));
  auto matrix = storage::LayerActivationMatrix::Make(n, rows[0].size());
  for (uint32_t i = 0; i < n; ++i) {
    std::copy(rows[i].begin(), rows[i].end(), matrix.MutableRow(i));
  }
  LayerIndexConfig config;
  config.num_partitions = 16;
  config.scheme = PartitionScheme::kEquiWidth;
  auto index = LayerIndex::Build(matrix, config);
  ASSERT_TRUE(index.ok());

  Rng rng(56);
  for (int trial = 0; trial < 5; ++trial) {
    NeuronGroup group{layer, {}};
    for (size_t pick :
         rng.SampleWithoutReplacement(rows[0].size(), 3)) {
      group.neurons.push_back(static_cast<int64_t>(pick));
    }
    const uint32_t target = static_cast<uint32_t>(rng.NextUint64(n));
    NtaEngine nta(sys.engine.get(), &index.value());
    NtaOptions options;
    options.k = 7;
    auto actual = RunNtaSimilar(&nta, group, target, options);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();

    std::vector<float> target_acts(group.neurons.size());
    for (size_t i = 0; i < group.neurons.size(); ++i) {
      target_acts[i] =
          matrix.At(target, static_cast<uint64_t>(group.neurons[i]));
    }
    auto expected = BruteForceMostSimilar(sys.engine.get(), group,
                                          target_acts, 7, L2Distance(), true,
                                          target);
    ASSERT_TRUE(expected.ok());
    ExpectValidTopK(*expected, *actual, /*smaller_is_better=*/true);

    // Highest must also stay exact.
    auto actual_high = RunNta(&nta, group, QuerySpec::Kind::kHighest, -1, {},
                              options);
    ASSERT_TRUE(actual_high.ok());
    auto expected_high =
        BruteForceHighest(sys.engine.get(), group, 7, L2Distance());
    ASSERT_TRUE(expected_high.ok());
    ExpectValidTopK(*expected_high, *actual_high, false);
  }
}

TEST(EquiWidthTest, SerializationRoundTrip) {
  LayerIndexConfig config;
  config.num_partitions = 5;
  config.scheme = PartitionScheme::kEquiWidth;
  auto built = LayerIndex::Build(UniformMatrix(), config);
  ASSERT_TRUE(built.ok());
  BinaryWriter writer;
  built->Serialize(&writer);
  BinaryReader reader(writer.buffer());
  auto loaded = LayerIndex::Deserialize(&reader);
  ASSERT_TRUE(loaded.ok());
  for (uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(loaded->GetPid(0, i), built->GetPid(0, i));
  }
}

}  // namespace
}  // namespace core
}  // namespace deepeverest
