// Regression tests for tie-complete NTA termination (the §4.6 cold-start
// determinism fix): on exact value ties at the k-th boundary, standard NTA
// may stop before evaluating every tied input and return a valid-but-
// arbitrary tie pick, so the fresh-scan path and NTA could disagree. In
// tie-complete mode NTA keeps going until the k-th value beats the
// threshold strictly, which makes its result equal the full activation scan
// bit-for-bit (canonical (value, input id) order).
//
// The crafted model is an identity "activation" layer over rank-1 inputs,
// so the dataset values ARE the activations and exact float ties can be
// constructed at will — in the extreme, a layer where every input ties.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/npi.h"
#include "core/nta.h"
#include "data/dataset.h"
#include "nn/inference.h"
#include "nn/layer.h"
#include "nn/model.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace core {
namespace {

using testing_util::RunNta;
using testing_util::RunNtaSimilar;

/// Identity layer with kind kRelu, so the model treats it as a queryable
/// activation layer and its outputs equal its inputs exactly.
class PassThrough : public nn::Layer {
 public:
  explicit PassThrough(std::string name)
      : Layer(nn::LayerKind::kRelu, std::move(name)) {}

  Result<Shape> OutputShape(const Shape& input) const override {
    return input;
  }
  void ForwardRows(const Shape& input, size_t n, const float* in, float* out,
                   float*) const override {
    std::copy(in, in + n * static_cast<size_t>(input.NumElements()), out);
  }
  int64_t MacsFor(const Shape& input) const override {
    return input.NumElements();
  }
};

/// Model + dataset + index where activations of layer 0 are exactly
/// `rows[i][j]` for input i, neuron j.
struct TieFixture {
  TieFixture(const std::vector<std::vector<float>>& rows, int num_partitions,
             double mai_ratio, int batch_size)
      : dataset("ties", Shape({static_cast<int>(rows[0].size())})) {
    const int dims = static_cast<int>(rows[0].size());
    model = std::make_unique<nn::Model>("identity", Shape({dims}));
    model->AddLayer(std::make_unique<PassThrough>("pass"));
    DE_EXPECT_OK(model->Finalize());

    matrix = storage::LayerActivationMatrix::Make(
        static_cast<uint32_t>(rows.size()), static_cast<uint64_t>(dims));
    for (uint32_t i = 0; i < rows.size(); ++i) {
      Tensor input(Shape({dims}));
      for (int d = 0; d < dims; ++d) {
        input.vec()[static_cast<size_t>(d)] = rows[i][static_cast<size_t>(d)];
        matrix.MutableRow(i)[d] = rows[i][static_cast<size_t>(d)];
      }
      dataset.Add(std::move(input), 0);
    }

    engine = std::make_unique<nn::InferenceEngine>(model.get(), &dataset,
                                                   batch_size);
    LayerIndexConfig config;
    config.num_partitions = num_partitions;
    config.mai_ratio = mai_ratio;
    auto built = LayerIndex::Build(matrix, config);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    index = std::make_unique<LayerIndex>(std::move(built.value()));
  }

  nn::ModelPtr model;
  data::Dataset dataset;
  storage::LayerActivationMatrix matrix;
  std::unique_ptr<nn::InferenceEngine> engine;
  std::unique_ptr<LayerIndex> index;
};

void ExpectIdentical(const TopKResult& expected, const TopKResult& actual) {
  ASSERT_EQ(expected.entries.size(), actual.entries.size());
  for (size_t i = 0; i < expected.entries.size(); ++i) {
    EXPECT_EQ(expected.entries[i].input_id, actual.entries[i].input_id)
        << "rank " << i;
    EXPECT_EQ(expected.entries[i].value, actual.entries[i].value)
        << "rank " << i;
  }
}

// A layer where EVERY input has the same activation: the k-th boundary is
// one giant tie. The canonical answer (what ScanHighest returns) is ids
// 0..k-1; tie-complete NTA must refuse to stop early and reproduce it.
TEST(NtaTieCompleteTest, AllTiesHighestMatchesScanExactly) {
  const std::vector<std::vector<float>> rows(40, std::vector<float>{1.0f});
  TieFixture fix(rows, /*num_partitions=*/4, /*mai_ratio=*/0.25,
                 /*batch_size=*/8);
  const NeuronGroup group{0, {0}};
  const TopKResult scan =
      ScanHighest(fix.matrix, group.neurons, /*k=*/5, L2Distance());
  ASSERT_EQ(scan.entries.size(), 5u);
  EXPECT_EQ(scan.entries[0].input_id, 0u);  // canonical tie order: by id

  // Standard termination stops at the first threshold check (k-th value ==
  // threshold == 1.0): a *valid* top-k after one 8-input batch, but blind
  // to the other 32 tied inputs.
  {
    NtaEngine nta(fix.engine.get(), fix.index.get());
    NtaOptions options;
    options.k = 5;
    auto result = RunNta(&nta, group, QuerySpec::Kind::kHighest, -1, {},
                         options);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->stats.terminated_early);
    EXPECT_LT(result->stats.inputs_run, 40);
  }

  // Tie-complete termination evaluates the whole tie and lands on the
  // canonical ids.
  {
    NtaEngine nta(fix.engine.get(), fix.index.get());
    NtaOptions options;
    options.k = 5;
    options.tie_complete = true;
    auto result = RunNta(&nta, group, QuerySpec::Kind::kHighest, -1, {},
                         options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->stats.inputs_run, 40);
    ExpectIdentical(scan, result.value());
  }
}

TEST(NtaTieCompleteTest, AllTiesMostSimilarMatchesScanExactly) {
  const std::vector<std::vector<float>> rows(40, std::vector<float>{2.5f});
  TieFixture fix(rows, /*num_partitions=*/4, /*mai_ratio=*/0.25,
                 /*batch_size=*/8);
  const NeuronGroup group{0, {0}};
  const uint32_t target_id = 7;
  const std::vector<float> target_acts{2.5f};
  const TopKResult scan =
      ScanMostSimilar(fix.matrix, group.neurons, target_acts, /*k=*/4,
                      L2Distance(), /*exclude_target=*/true, target_id);

  NtaEngine nta(fix.engine.get(), fix.index.get());
  NtaOptions options;
  options.k = 4;
  options.tie_complete = true;
  auto result = RunNtaSimilar(&nta, group, target_id, options);
  ASSERT_TRUE(result.ok());
  // Every input ties at distance 0, so nothing may be skipped (the target
  // pass plus all 39 others).
  EXPECT_EQ(result->stats.inputs_run, 40);
  ExpectIdentical(scan, result.value());
}

// A two-sided tie at the k-th boundary: inputs 0 and 1 sit at exactly the
// same distance from the target, on opposite sides of its activation.
// Standard NTA can stop after meeting either one; tie-complete must see
// both and pick the canonical (smaller id) winner, like the scan does.
TEST(NtaTieCompleteTest, BoundaryTieResolvesToCanonicalId) {
  const std::vector<std::vector<float>> rows = {
      {6.0f}, {4.0f}, {9.0f}, {0.5f}, {9.5f},
      {0.2f}, {8.0f}, {1.5f}, {7.5f}, {5.0f},
  };
  TieFixture fix(rows, /*num_partitions=*/4, /*mai_ratio=*/0.2,
                 /*batch_size=*/2);
  const NeuronGroup group{0, {0}};
  const uint32_t target_id = 9;  // activation 5.0; ids 0 and 1 at dist 1.0
  const std::vector<float> target_acts{5.0f};
  const TopKResult scan =
      ScanMostSimilar(fix.matrix, group.neurons, target_acts, /*k=*/1,
                      L2Distance(), /*exclude_target=*/true, target_id);
  ASSERT_EQ(scan.entries.size(), 1u);
  EXPECT_EQ(scan.entries[0].input_id, 0u);
  EXPECT_EQ(scan.entries[0].value, 1.0);

  NtaEngine nta(fix.engine.get(), fix.index.get());
  NtaOptions options;
  options.k = 1;
  options.tie_complete = true;
  auto result = RunNtaSimilar(&nta, group, target_id, options);
  ASSERT_TRUE(result.ok());
  ExpectIdentical(scan, result.value());
}

// theta-approximation still composes with tie-complete mode: the guarantee
// weakens to eq. 6's bound, but the strict comparison keeps the run
// deterministic and the returned values valid.
TEST(NtaTieCompleteTest, ThetaApproximationStillTerminates) {
  const std::vector<std::vector<float>> rows(32, std::vector<float>{1.0f});
  TieFixture fix(rows, /*num_partitions=*/4, /*mai_ratio=*/0.25,
                 /*batch_size=*/8);
  const NeuronGroup group{0, {0}};
  NtaEngine nta(fix.engine.get(), fix.index.get());
  NtaOptions options;
  options.k = 3;
  options.theta = 0.5;
  options.tie_complete = true;
  auto result = RunNta(&nta, group, QuerySpec::Kind::kHighest, -1, {}, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->entries.size(), 3u);
  for (const ResultEntry& e : result->entries) EXPECT_EQ(e.value, 1.0);
}

}  // namespace
}  // namespace core
}  // namespace deepeverest
