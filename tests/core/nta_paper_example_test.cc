// Encodes the paper's worked examples verbatim:
//  * Figures 1-3 (sections 4.3/4.4): the six-input, three-neuron dataset and
//    the topk(x5, {R1,R2,R3}, 2, l1) query, checking the final answer, the
//    number of rounds, and that x0's inference is never paid for.
//  * Figure 4 (section 4.7.1): the MAI example where
//    topk(x0, {R1,R2,R3}, 1, l1) is answered after inference on x0 and x1
//    only.
#include <gtest/gtest.h>

#include "core/nta.h"
#include "nn/layers.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace core {
namespace {

using testing_util::RunNtaSimilar;

/// A model whose single ReLU layer reproduces the input verbatim (all
/// example activations are positive), so the paper's activation tables can
/// be injected as dataset rows.
nn::ModelPtr MakePassthrough(int dims) {
  auto model = std::make_unique<nn::Model>("passthrough", Shape({dims}));
  model->AddLayer(std::make_unique<nn::Relu>("relu"));
  DE_CHECK(model->Finalize().ok());
  return model;
}

data::Dataset TableDataset(const std::vector<std::vector<float>>& rows) {
  data::Dataset dataset("table", Shape({static_cast<int64_t>(rows[0].size())}));
  for (const auto& row : rows) {
    dataset.Add(Tensor(Shape({static_cast<int64_t>(row.size())}), row), 0);
  }
  return dataset;
}

storage::LayerActivationMatrix MatrixOf(
    const std::vector<std::vector<float>>& rows) {
  storage::LayerActivationMatrix m =
      storage::LayerActivationMatrix::Make(rows.size(), rows[0].size());
  for (uint32_t i = 0; i < rows.size(); ++i) {
    std::copy(rows[i].begin(), rows[i].end(), m.MutableRow(i));
  }
  return m;
}

const std::vector<std::vector<float>>& Figure1Rows() {
  static const auto& rows = *new std::vector<std::vector<float>>{
      {2.0f, 2.0f, 2.0f}, {2.0f, 1.6f, 1.0f}, {1.5f, 1.8f, 1.6f},
      {1.8f, 1.7f, 1.8f}, {1.2f, 1.2f, 1.1f}, {1.1f, 1.1f, 1.2f},
  };
  return rows;
}

class Figure123Test : public ::testing::Test {
 protected:
  Figure123Test()
      : model_(MakePassthrough(3)),
        dataset_(TableDataset(Figure1Rows())),
        engine_(model_.get(), &dataset_, /*batch_size=*/8) {}

  nn::ModelPtr model_;
  data::Dataset dataset_;
  nn::InferenceEngine engine_;
};

TEST_F(Figure123Test, WorkedExampleQuery) {
  auto index =
      LayerIndex::Build(MatrixOf(Figure1Rows()), LayerIndexConfig{3, 0.0});
  ASSERT_TRUE(index.ok());
  NtaEngine nta(&engine_, &index.value());

  NtaOptions options;
  options.k = 2;
  auto dist = MakeDistance(DistanceKind::kL1);
  ASSERT_TRUE(dist.ok());
  options.dist = *dist;

  std::vector<NtaProgress> progress;
  QueryContext ctx;
  ctx.on_progress = [&](const NtaProgress& p) {
    progress.push_back(p);
    return true;
  };

  auto result = RunNtaSimilar(&nta, NeuronGroup{0, {0, 1, 2}}, 5, options,
                              &ctx);
  ASSERT_TRUE(result.ok());

  // Final answer: (x4, 0.3), (x2, 1.5).
  ASSERT_EQ(result->entries.size(), 2u);
  EXPECT_EQ(result->entries[0].input_id, 4u);
  EXPECT_NEAR(result->entries[0].value, 0.3, 1e-5);
  EXPECT_EQ(result->entries[1].input_id, 2u);
  EXPECT_NEAR(result->entries[1].value, 1.5, 1e-5);

  // NTA halts after round c=1 via the threshold, never touching x0:
  // inference ran on x5 (target), x4, x2 (c=0), x3, x1 (c=1) = 5 inputs.
  EXPECT_TRUE(result->stats.terminated_early);
  EXPECT_EQ(result->stats.rounds, 2);
  EXPECT_EQ(result->stats.inputs_run, 5);

  // Figure 3's thresholds: t = 0.2 at c=0, t = 1.7 at c=1. The c=1 round
  // terminates before the progress callback fires, so only c=0 reports.
  ASSERT_GE(progress.size(), 1u);
  EXPECT_NEAR(progress[0].threshold, 0.2, 1e-5);
  EXPECT_NEAR(progress[0].kth_value, 1.5, 1e-5);
}

TEST_F(Figure123Test, ExhaustiveScanWhenThresholdNeverFires) {
  // k = 5 of 5 candidates: NTA must return everything except the target.
  auto index =
      LayerIndex::Build(MatrixOf(Figure1Rows()), LayerIndexConfig{3, 0.0});
  ASSERT_TRUE(index.ok());
  NtaEngine nta(&engine_, &index.value());
  NtaOptions options;
  options.k = 5;
  auto dist = MakeDistance(DistanceKind::kL1);
  options.dist = *dist;
  auto result = RunNtaSimilar(&nta, NeuronGroup{0, {0, 1, 2}}, 5, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->entries.size(), 5u);
  // All six inputs ran (target included).
  EXPECT_EQ(result->stats.inputs_run, 6);
  // Best is x4 (0.3), worst is x0 (0.9 + 0.9 + 0.8 = 2.6).
  EXPECT_EQ(result->entries[0].input_id, 4u);
  EXPECT_EQ(result->entries[4].input_id, 0u);
  EXPECT_NEAR(result->entries[4].value, 2.6, 1e-5);
}

TEST(Figure4MaiTest, AnswersAfterTwoInferences) {
  const std::vector<std::vector<float>> rows = {
      {2.0f, 2.0f, 1.1f}, {2.0f, 1.8f, 1.1f}, {1.5f, 1.7f, 1.6f},
      {1.8f, 1.6f, 1.8f}, {1.2f, 1.2f, 1.5f},
  };
  nn::ModelPtr model = MakePassthrough(3);
  data::Dataset dataset = TableDataset(rows);
  nn::InferenceEngine engine(model.get(), &dataset, /*batch_size=*/1);

  // ratio 0.6 of 5 inputs -> 3 MAI entries; the example only shows the MAI
  // partition, so use 2 partitions (MAI + rest).
  auto index = LayerIndex::Build(MatrixOf(rows), LayerIndexConfig{2, 0.6});
  ASSERT_TRUE(index.ok());
  ASSERT_EQ(index->mai_count(), 3u);

  NtaEngine nta(&engine, &index.value());
  NtaOptions options;
  options.k = 1;
  auto dist = MakeDistance(DistanceKind::kL1);
  ASSERT_TRUE(dist.ok());
  options.dist = *dist;

  auto result = RunNtaSimilar(&nta, NeuronGroup{0, {0, 1, 2}}, 0, options);
  ASSERT_TRUE(result.ok());

  // Figure 4: the answer is (x1, 0.2) after DNN inference on only x0 and x1.
  ASSERT_EQ(result->entries.size(), 1u);
  EXPECT_EQ(result->entries[0].input_id, 1u);
  EXPECT_NEAR(result->entries[0].value, 0.2, 1e-5);
  EXPECT_EQ(result->stats.inputs_run, 2);
  EXPECT_TRUE(result->stats.terminated_early);
}

TEST(Figure4MaiTest, WithoutMaiRunsMoreInputs) {
  // The same query with MAI disabled must still be correct but needs to
  // process whole partitions.
  const std::vector<std::vector<float>> rows = {
      {2.0f, 2.0f, 1.1f}, {2.0f, 1.8f, 1.1f}, {1.5f, 1.7f, 1.6f},
      {1.8f, 1.6f, 1.8f}, {1.2f, 1.2f, 1.5f},
  };
  nn::ModelPtr model = MakePassthrough(3);
  data::Dataset dataset = TableDataset(rows);
  nn::InferenceEngine engine(model.get(), &dataset, /*batch_size=*/1);
  auto index = LayerIndex::Build(MatrixOf(rows), LayerIndexConfig{2, 0.6});
  ASSERT_TRUE(index.ok());

  NtaEngine nta(&engine, &index.value());
  NtaOptions options;
  options.k = 1;
  auto dist = MakeDistance(DistanceKind::kL1);
  options.dist = *dist;
  options.use_mai = false;

  auto result = RunNtaSimilar(&nta, NeuronGroup{0, {0, 1, 2}}, 0, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->entries.size(), 1u);
  EXPECT_EQ(result->entries[0].input_id, 1u);
  EXPECT_NEAR(result->entries[0].value, 0.2, 1e-5);
  EXPECT_GT(result->stats.inputs_run, 2);
}

}  // namespace
}  // namespace core
}  // namespace deepeverest
