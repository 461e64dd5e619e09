#include "nn/inference.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

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
  std::vector<storage::LayerActivationMatrix> matrices;
  DE_ASSERT_OK(sys.engine->ComputeAllLayers({1, 3}, &matrices));
  ASSERT_EQ(matrices.size(), 2u);
  // One metered batch per input, at full-model cost.
  EXPECT_EQ(sys.engine->stats().inputs_run, 10);
  EXPECT_EQ(sys.engine->stats().batches_run, 10);
  std::vector<std::vector<float>> rows;
  DE_ASSERT_OK(sys.engine->ComputeLayer({4}, 3, &rows));
  ASSERT_EQ(matrices[1].num_neurons, rows[0].size());
  for (size_t i = 0; i < rows[0].size(); ++i) {
    EXPECT_EQ(rows[0][i], matrices[1].At(4, i));
  }
}

// MiniVgg over seeded synthetic images: heavy enough per input that every
// call of two or more inputs fans out over the worker set.
struct VggSystem {
  ModelPtr model = MakeMiniVgg(3);
  data::Dataset dataset = [] {
    data::SyntheticImageConfig config;
    config.num_inputs = 200;
    config.seed = 4;
    return data::MakeSyntheticImages(config);
  }();
  InferenceEngine engine{model.get(), &dataset, /*batch_size=*/16};
};

bool SameBits(const float* a, const float* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// Ids n-1, n-2, ..., 0 spread over the dataset, so rows are not in id order.
std::vector<uint32_t> SpreadIds(size_t n, uint32_t dataset_size) {
  std::vector<uint32_t> ids;
  for (size_t i = n; i-- > 0;) {
    ids.push_back(static_cast<uint32_t>(i * 7919 % dataset_size));
  }
  return ids;
}

// ComputeLayer (and ComputeLayerMatrix) against a serial ForwardTo loop.
void ExpectBitwiseSerial(InferenceEngine* engine, int layer) {
  const Model& model = engine->model();
  const data::Dataset& dataset = engine->dataset();
  for (const size_t n : {1, 2, 3, 17, 200}) {
    SCOPED_TRACE("layer " + std::to_string(layer) + ", n " +
                 std::to_string(n));
    const std::vector<uint32_t> ids = SpreadIds(n, dataset.size());
    std::vector<std::vector<float>> rows;
    DE_ASSERT_OK(engine->ComputeLayer(ids, layer, &rows));
    ASSERT_EQ(rows.size(), n);
    auto matrix = engine->ComputeLayerMatrix(
        layer, 0, static_cast<uint32_t>(std::min<size_t>(n, dataset.size())));
    DE_ASSERT_OK(matrix.status());
    for (size_t i = 0; i < n; ++i) {
      Tensor serial;
      DE_ASSERT_OK(model.ForwardTo(dataset.input(ids[i]), layer, &serial));
      ASSERT_EQ(rows[i].size(), serial.vec().size());
      EXPECT_TRUE(SameBits(rows[i].data(), serial.data(), rows[i].size()))
          << "row " << i;
      if (i < matrix->num_inputs) {
        Tensor by_id;
        DE_ASSERT_OK(
            model.ForwardTo(dataset.input(static_cast<uint32_t>(i)), layer,
                            &by_id));
        EXPECT_TRUE(SameBits(matrix->Row(static_cast<uint32_t>(i)),
                             by_id.data(), matrix->num_neurons))
            << "matrix row " << i;
      }
    }
  }
}

TEST(InferenceEngineTest, ParallelComputeLayerIsBitwiseSerialMiniVgg) {
  VggSystem sys;
  const std::vector<int>& layers = sys.model->activation_layers();
  ExpectBitwiseSerial(&sys.engine, layers.front());  // early
  ExpectBitwiseSerial(&sys.engine, layers.back());   // late
}

TEST(InferenceEngineTest, ParallelComputeLayerIsBitwiseSerialTinyMlp) {
  TinySystem sys(200, 8);
  for (const int layer : sys.model->activation_layers()) {
    ExpectBitwiseSerial(sys.engine.get(), layer);
  }
}

// MiniResNet: its residual blocks, batch norms, global average pool and
// softmax head run through the row-block path too. The softmax layer is
// checked on top of the activation layers, so every layer kind is covered.
TEST(InferenceEngineTest, ParallelComputeLayerIsBitwiseSerialMiniResNet) {
  ModelPtr model = MakeMiniResNet(5);
  data::SyntheticImageConfig config;
  config.num_inputs = 200;
  config.seed = 6;
  const data::Dataset dataset = data::MakeSyntheticImages(config);
  InferenceEngine engine(model.get(), &dataset, /*batch_size=*/16);
  for (const int layer : model->activation_layers()) {
    ExpectBitwiseSerial(&engine, layer);
  }
  ExpectBitwiseSerial(&engine, model->num_layers() - 1);
}

TEST(InferenceEngineTest, ComputeAllLayersIsBitwiseSerial) {
  VggSystem sys;
  std::vector<int> layers(static_cast<size_t>(sys.model->num_layers()));
  for (size_t l = 0; l < layers.size(); ++l) layers[l] = static_cast<int>(l);
  std::vector<storage::LayerActivationMatrix> matrices;
  DE_ASSERT_OK(sys.engine.ComputeAllLayers(layers, &matrices));
  ASSERT_EQ(matrices.size(), layers.size());
  std::vector<Tensor> outputs;
  for (uint32_t id = 0; id < sys.dataset.size(); ++id) {
    DE_ASSERT_OK(sys.model->ForwardAll(sys.dataset.input(id), &outputs));
    for (size_t l = 0; l < layers.size(); ++l) {
      ASSERT_EQ(matrices[l].num_neurons, outputs[l].vec().size());
      ASSERT_TRUE(SameBits(matrices[l].Row(id), outputs[l].data(),
                           matrices[l].num_neurons))
          << "input " << id << ", layer " << l;
    }
  }
}

TEST(InferenceEngineTest, ConcurrentCallersGetSerialRowsAndReceipts) {
  VggSystem sys;
  const std::vector<int>& layers = sys.model->activation_layers();
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 4;
  // Call (t, c) asks for layer layers[(t + c) % size] over 5 + 3t inputs.
  const auto layer_of = [&](int t, int c) {
    return layers[static_cast<size_t>(t + c) % layers.size()];
  };
  const auto ids_of = [&](int t, int c) {
    std::vector<uint32_t> ids = SpreadIds(static_cast<size_t>(5 + 3 * t),
                                          sys.dataset.size());
    for (uint32_t& id : ids) id = (id + static_cast<uint32_t>(c)) % 200;
    return ids;
  };
  std::vector<std::vector<std::vector<float>>> expected_rows;
  std::vector<InferenceReceipt> expected_receipts;
  for (int t = 0; t < kThreads; ++t) {
    for (int c = 0; c < kCallsPerThread; ++c) {
      std::vector<std::vector<float>> rows;
      InferenceReceipt receipt;
      DE_ASSERT_OK(
          sys.engine.ComputeLayer(ids_of(t, c), layer_of(t, c), &rows,
                                  &receipt));
      expected_rows.push_back(std::move(rows));
      expected_receipts.push_back(receipt);
    }
  }
  const InferenceStats serial = sys.engine.stats();

  std::vector<std::vector<std::vector<float>>> rows(expected_rows.size());
  std::vector<InferenceReceipt> receipts(expected_rows.size());
  std::vector<Status> statuses(expected_rows.size());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int c = 0; c < kCallsPerThread; ++c) {
        const size_t slot = static_cast<size_t>(t * kCallsPerThread + c);
        statuses[slot] = sys.engine.ComputeLayer(
            ids_of(t, c), layer_of(t, c), &rows[slot], &receipts[slot]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t slot = 0; slot < rows.size(); ++slot) {
    DE_ASSERT_OK(statuses[slot]);
    ASSERT_EQ(rows[slot].size(), expected_rows[slot].size());
    for (size_t i = 0; i < rows[slot].size(); ++i) {
      ASSERT_EQ(rows[slot][i].size(), expected_rows[slot][i].size());
      EXPECT_TRUE(SameBits(rows[slot][i].data(), expected_rows[slot][i].data(),
                           rows[slot][i].size()))
          << "call " << slot << ", row " << i;
    }
    EXPECT_EQ(receipts[slot].inputs_run, expected_receipts[slot].inputs_run);
    EXPECT_EQ(receipts[slot].batches_run,
              expected_receipts[slot].batches_run);
    EXPECT_EQ(receipts[slot].macs, expected_receipts[slot].macs);
    EXPECT_EQ(receipts[slot].simulated_gpu_seconds,
              expected_receipts[slot].simulated_gpu_seconds);
  }
  const InferenceStats both = sys.engine.stats();
  EXPECT_EQ(both.inputs_run, 2 * serial.inputs_run);
  EXPECT_EQ(both.batches_run, 2 * serial.batches_run);
  EXPECT_EQ(both.macs, 2 * serial.macs);
}

TEST(InferenceEngineTest, FailingCallLeavesNothingBehind) {
  // MiniVgg over a dataset of 8-float vectors: every forward pass fails its
  // input-shape check, on whichever thread runs it.
  ModelPtr model = MakeMiniVgg(3);
  const data::Dataset dataset = testing_util::MakeVectorDataset(40, 8, 9);
  InferenceEngine engine(model.get(), &dataset, /*batch_size=*/16);
  const int layer = model->activation_layers().back();
  const std::vector<uint32_t> ids = SpreadIds(40, dataset.size());
  Tensor unused;
  const Status first = model->ForwardTo(dataset.input(ids[0]), layer, &unused);
  ASSERT_FALSE(first.ok());

  InferenceReceipt receipt;
  receipt.inputs_run = 7;  // a receipt is added to, never reset
  const InferenceStats before = engine.stats();

  std::vector<std::vector<float>> rows = {{1.0f}};
  const Status status = engine.ComputeLayer(ids, layer, &rows, &receipt);
  EXPECT_EQ(status.code(), first.code());
  EXPECT_EQ(status.ToString(), first.ToString());
  EXPECT_TRUE(rows.empty());

  auto matrix = engine.ComputeLayerMatrix(layer, 0, 40, &receipt);
  EXPECT_EQ(matrix.status().ToString(), first.ToString());

  std::vector<storage::LayerActivationMatrix> matrices(1);
  const Status all = engine.ComputeAllLayers({layer}, &matrices, &receipt);
  EXPECT_EQ(all.code(), first.code());
  EXPECT_TRUE(matrices.empty());

  const InferenceStats after = engine.stats();
  EXPECT_EQ(after.inputs_run, before.inputs_run);
  EXPECT_EQ(after.batches_run, before.batches_run);
  EXPECT_EQ(after.macs, before.macs);
  EXPECT_EQ(after.simulated_gpu_seconds, before.simulated_gpu_seconds);
  EXPECT_EQ(after.wall_seconds, before.wall_seconds);
  EXPECT_EQ(receipt.inputs_run, 7);
  EXPECT_EQ(receipt.batches_run, 0.0);
  EXPECT_EQ(receipt.macs, 0);
  EXPECT_EQ(receipt.simulated_gpu_seconds, 0.0);
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
