// Empirical check of Theorem 4.1: NTA's input accesses are bounded by
// d + 2R, where d is CTA's maximal sorted-access depth on the same query
// over the AbsDiff relation and R is the NPI partition size.
#include <gtest/gtest.h>

#include "baselines/cta.h"
#include "core/nta.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace baselines {
namespace {

using core::LayerIndex;
using core::LayerIndexConfig;
using core::NeuronGroup;
using core::NtaEngine;
using core::NtaOptions;
using testing_util::TinySystem;
using testing_util::RunNtaSimilar;

class InstanceOptimalityTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int, int>> {};

TEST_P(InstanceOptimalityTest, NtaAccessesBoundedByCtaDepthPlusTwoR) {
  const auto [seed, num_partitions, group_size] = GetParam();
  const uint32_t n = 120;
  TinySystem sys(n, seed, /*batch_size=*/4);
  const int layer = sys.model->activation_layers()[1];

  // Materialise the layer for CTA and for index construction.
  std::vector<uint32_t> ids(n);
  for (uint32_t i = 0; i < n; ++i) ids[i] = i;
  std::vector<std::vector<float>> rows;
  DE_ASSERT_OK(sys.engine->ComputeLayer(ids, layer, &rows));
  auto matrix = storage::LayerActivationMatrix::Make(n, rows[0].size());
  for (uint32_t i = 0; i < n; ++i) {
    std::copy(rows[i].begin(), rows[i].end(), matrix.MutableRow(i));
  }
  auto index =
      LayerIndex::Build(matrix, LayerIndexConfig{num_partitions, 0.0});
  ASSERT_TRUE(index.ok());

  Rng rng(seed + 5);
  for (int trial = 0; trial < 4; ++trial) {
    NeuronGroup group;
    group.layer = layer;
    for (size_t pick : rng.SampleWithoutReplacement(
             rows[0].size(), static_cast<size_t>(group_size))) {
      group.neurons.push_back(static_cast<int64_t>(pick));
    }
    const uint32_t target = static_cast<uint32_t>(rng.NextUint64(n));
    std::vector<float> target_acts(group.neurons.size());
    for (size_t i = 0; i < group.neurons.size(); ++i) {
      target_acts[i] = matrix.At(target, group.neurons[i]);
    }

    // CTA depth d over the AbsDiff relation.
    const CtaResult cta = CtaMostSimilar(matrix, group.neurons, target_acts,
                                         10, core::L2Distance(),
                                         /*exclude_target=*/true, target);

    // NTA access count (excluding the target's own inference).
    NtaEngine nta(sys.engine.get(), &index.value());
    NtaOptions options;
    options.k = 10;
    auto result = RunNtaSimilar(&nta, group, target, options);
    ASSERT_TRUE(result.ok());

    // Partition size R (largest partition).
    const uint32_t r =
        (n + static_cast<uint32_t>(num_partitions) - 1) /
        static_cast<uint32_t>(num_partitions);

    // Theorem 4.1 bound, per neuron: accesses <= d + 2R. NTA's total
    // accesses are the union over the group, so the safe aggregate bound is
    // group_size * (d + 2R) — but the meaningful check (and what makes NTA
    // instance optimal with the group size as the constant) is against
    // |G| * (d + 2R).
    const int64_t bound =
        static_cast<int64_t>(group.neurons.size()) *
        (cta.sorted_depth + 2 * static_cast<int64_t>(r));
    EXPECT_LE(result->stats.inputs_run - 1, bound)
        << "seed=" << seed << " partitions=" << num_partitions
        << " group=" << group_size << " d=" << cta.sorted_depth
        << " R=" << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InstanceOptimalityTest,
    ::testing::Combine(::testing::Values(uint64_t{101}, uint64_t{202},
                                         uint64_t{303}),
                       ::testing::Values(4, 8, 24),    // partitions
                       ::testing::Values(1, 2, 4)));   // group size

}  // namespace
}  // namespace baselines
}  // namespace deepeverest
