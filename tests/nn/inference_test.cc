#include "nn/inference.h"

#include <gtest/gtest.h>

#include "testing/test_util.h"

namespace deepeverest {
namespace nn {
namespace {

using testing_util::TinySystem;

TEST(InferenceEngineTest, ComputeLayerMatchesDirectForward) {
  TinySystem sys(20, 1);
  std::vector<std::vector<float>> rows;
  DE_ASSERT_OK(sys.engine->ComputeLayer({3, 7, 11}, 1, &rows));
  ASSERT_EQ(rows.size(), 3u);
  Tensor direct;
  DE_ASSERT_OK(sys.model->ForwardTo(sys.dataset.input(7), 1, &direct));
  ASSERT_EQ(rows[1].size(), static_cast<size_t>(direct.NumElements()));
  for (int64_t i = 0; i < direct.NumElements(); ++i) {
    EXPECT_EQ(rows[1][static_cast<size_t>(i)], direct[i]);
  }
}

TEST(InferenceEngineTest, StatsCountInputsAndBatches) {
  TinySystem sys(50, 2, /*batch_size=*/16);
  std::vector<std::vector<float>> rows;
  std::vector<uint32_t> ids(50);
  for (uint32_t i = 0; i < 50; ++i) ids[i] = i;
  DE_ASSERT_OK(sys.engine->ComputeLayer(ids, 1, &rows));
  EXPECT_EQ(sys.engine->stats().inputs_run, 50);
  EXPECT_EQ(sys.engine->stats().batches_run, 4);  // ceil(50/16)
  EXPECT_GT(sys.engine->stats().macs, 0);
  EXPECT_GT(sys.engine->stats().simulated_gpu_seconds, 0.0);
}

TEST(InferenceEngineTest, ResetStatsZeroes) {
  TinySystem sys(10, 3);
  std::vector<std::vector<float>> rows;
  DE_ASSERT_OK(sys.engine->ComputeLayer({0, 1}, 0, &rows));
  EXPECT_GT(sys.engine->stats().inputs_run, 0);
  sys.engine->ResetStats();
  EXPECT_EQ(sys.engine->stats().inputs_run, 0);
  EXPECT_EQ(sys.engine->stats().batches_run, 0);
}

TEST(InferenceEngineTest, EmptyRequestIsFreeAndOk) {
  TinySystem sys(10, 4);
  std::vector<std::vector<float>> rows;
  DE_ASSERT_OK(sys.engine->ComputeLayer({}, 0, &rows));
  EXPECT_TRUE(rows.empty());
  EXPECT_EQ(sys.engine->stats().inputs_run, 0);
}

TEST(InferenceEngineTest, OutOfRangeInputId) {
  TinySystem sys(10, 5);
  std::vector<std::vector<float>> rows;
  EXPECT_TRUE(sys.engine->ComputeLayer({99}, 0, &rows).IsOutOfRange());

  // A valid id ahead of the bad one must not run either: the whole request
  // is rejected before any inference, so nothing is left in `rows` and
  // neither the stats nor the receipt count a forward pass.
  DE_ASSERT_OK(sys.engine->ComputeLayer({1, 2}, 0, &rows));
  const InferenceStats before = sys.engine->stats();
  InferenceReceipt receipt;
  EXPECT_TRUE(
      sys.engine->ComputeLayer({0, 99}, 0, &rows, &receipt).IsOutOfRange());
  EXPECT_TRUE(rows.empty());
  const InferenceStats after = sys.engine->stats();
  EXPECT_EQ(after.inputs_run, before.inputs_run);
  EXPECT_EQ(after.batches_run, before.batches_run);
  EXPECT_EQ(after.macs, before.macs);
  EXPECT_EQ(after.simulated_gpu_seconds, before.simulated_gpu_seconds);
  EXPECT_EQ(after.wall_seconds, before.wall_seconds);
  EXPECT_EQ(receipt.inputs_run, 0);
  EXPECT_EQ(receipt.batches_run, 0.0);
}

TEST(InferenceEngineTest, ComputeAllLayersMatchesPerLayer) {
  TinySystem sys(10, 6);
  std::vector<Tensor> outputs;
  DE_ASSERT_OK(sys.engine->ComputeAllLayers(4, &outputs));
  ASSERT_EQ(outputs.size(), static_cast<size_t>(sys.model->num_layers()));
  std::vector<std::vector<float>> rows;
  DE_ASSERT_OK(sys.engine->ComputeLayer({4}, 3, &rows));
  for (size_t i = 0; i < rows[0].size(); ++i) {
    EXPECT_EQ(rows[0][i], outputs[3][static_cast<int64_t>(i)]);
  }
}

TEST(GpuCostModelTest, FullBatchesScaleLinearly) {
  GpuCostModel cost;
  const double one = cost.BatchSeconds(64, 64, 1000000);
  const double two = cost.BatchSeconds(128, 64, 1000000);
  EXPECT_NEAR(two, 2.0 * one, 1e-12);
}

TEST(GpuCostModelTest, SmallBatchCostsLikeFullBatch) {
  // The Figure 7 plateau: a batch of 1 launches the same kernel as a batch
  // of 64, so tiny partitions stop paying off.
  GpuCostModel cost;
  EXPECT_EQ(cost.BatchSeconds(1, 64, 1000000),
            cost.BatchSeconds(64, 64, 1000000));
}

TEST(GpuCostModelTest, SimulatedTimeGrowsWithLayerDepth) {
  TinySystem sys(20, 7);
  std::vector<std::vector<float>> rows;
  DE_ASSERT_OK(sys.engine->ComputeLayer({0, 1, 2}, 0, &rows));
  const double shallow = sys.engine->stats().simulated_gpu_seconds;
  sys.engine->ResetStats();
  DE_ASSERT_OK(
      sys.engine->ComputeLayer({0, 1, 2}, sys.model->num_layers() - 1, &rows));
  EXPECT_GT(sys.engine->stats().simulated_gpu_seconds, shallow);
}

}  // namespace
}  // namespace nn
}  // namespace deepeverest
