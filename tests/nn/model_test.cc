#include "nn/model.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/model_zoo.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace nn {
namespace {

TEST(ModelTest, FinalizeComputesShapesAndCosts) {
  ModelPtr model = MakeTinyMlp(8, 1);
  EXPECT_TRUE(model->finalized());
  EXPECT_EQ(model->num_layers(), 8);
  EXPECT_EQ(model->layer_output_shape(0), Shape({16}));  // fc1
  EXPECT_EQ(model->layer_output_shape(1), Shape({16}));  // relu1
  EXPECT_EQ(model->layer_output_shape(7), Shape({4}));   // softmax
  // Cumulative MACs strictly increase through dense layers.
  EXPECT_GT(model->CumulativeMacs(2), model->CumulativeMacs(0));
  EXPECT_GT(model->CumulativeMacs(7), model->CumulativeMacs(6) - 1);
}

TEST(ModelTest, ActivationLayersAreRelus) {
  ModelPtr model = MakeTinyMlp(8, 1);
  const std::vector<int> expected = {1, 3, 5};
  EXPECT_EQ(model->activation_layers(), expected);
}

TEST(ModelTest, ForwardToMatchesForwardAll) {
  ModelPtr model = MakeTinyMlp(8, 2);
  Rng rng(3);
  Tensor input(Shape({8}));
  for (int i = 0; i < 8; ++i) {
    input[i] = static_cast<float>(rng.NextGaussian());
  }
  std::vector<Tensor> all;
  ASSERT_TRUE(model->ForwardAll(input, &all).ok());
  ASSERT_EQ(all.size(), 8u);
  for (int layer = 0; layer < model->num_layers(); ++layer) {
    Tensor out;
    ASSERT_TRUE(model->ForwardTo(input, layer, &out).ok());
    ASSERT_EQ(out.NumElements(), all[layer].NumElements());
    for (int64_t i = 0; i < out.NumElements(); ++i) {
      ASSERT_EQ(out[i], all[static_cast<size_t>(layer)][i])
          << "layer " << layer << " element " << i;
    }
  }
}

TEST(ModelTest, DeterministicAcrossInstances) {
  ModelPtr a = MakeTinyMlp(8, 7);
  ModelPtr b = MakeTinyMlp(8, 7);
  Tensor input(Shape({8}));
  input.Fill(0.3f);
  Tensor out_a, out_b;
  ASSERT_TRUE(a->ForwardTo(input, 5, &out_a).ok());
  ASSERT_TRUE(b->ForwardTo(input, 5, &out_b).ok());
  for (int64_t i = 0; i < out_a.NumElements(); ++i) {
    EXPECT_EQ(out_a[i], out_b[i]);
  }
}

TEST(ModelTest, DifferentSeedsDifferentWeights) {
  ModelPtr a = MakeTinyMlp(8, 7);
  ModelPtr b = MakeTinyMlp(8, 8);
  Tensor input(Shape({8}));
  input.Fill(0.3f);
  Tensor out_a, out_b;
  ASSERT_TRUE(a->ForwardTo(input, 0, &out_a).ok());
  ASSERT_TRUE(b->ForwardTo(input, 0, &out_b).ok());
  bool any_diff = false;
  for (int64_t i = 0; i < out_a.NumElements(); ++i) {
    if (out_a[i] != out_b[i]) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ModelTest, RejectsBadLayerIndex) {
  ModelPtr model = MakeTinyMlp(8, 1);
  Tensor input(Shape({8}));
  Tensor out;
  EXPECT_TRUE(model->ForwardTo(input, -1, &out).IsOutOfRange());
  EXPECT_TRUE(model->ForwardTo(input, 99, &out).IsOutOfRange());
}

TEST(ModelTest, RejectsWrongInputShape) {
  ModelPtr model = MakeTinyMlp(8, 1);
  Tensor input(Shape({9}));
  Tensor out;
  EXPECT_TRUE(model->ForwardTo(input, 0, &out).IsInvalidArgument());
}

TEST(ModelTest, ForwardRowsOfNoInputsIsANoOp) {
  ModelPtr model = MakeMiniResNet(1);
  std::vector<float> scratch;
  std::vector<float*> outs(static_cast<size_t>(model->num_layers()), nullptr);
  DE_ASSERT_OK(model->ForwardRows(nullptr, 0, model->num_layers() - 1,
                                  outs.data(), &scratch));
  EXPECT_TRUE(scratch.empty());
  // The layer checks still apply to an empty block.
  EXPECT_TRUE(model->ForwardRows(nullptr, 0, 99, outs.data(), &scratch)
                  .IsOutOfRange());
}

TEST(ModelTest, ForwardRowsMatchesForwardToPerRow) {
  ModelPtr model = MakeMiniResNet(2);
  Rng rng(5);
  constexpr size_t kRows = 3;
  const auto width = static_cast<size_t>(model->input_shape().NumElements());
  std::vector<Tensor> inputs;
  std::vector<float> block;
  for (size_t r = 0; r < kRows; ++r) {
    Tensor input(model->input_shape());
    for (int64_t i = 0; i < input.NumElements(); ++i) {
      input[i] = static_cast<float>(rng.NextGaussian());
    }
    block.insert(block.end(), input.vec().begin(), input.vec().end());
    inputs.push_back(std::move(input));
  }
  ASSERT_EQ(block.size(), kRows * width);
  std::vector<float> scratch;
  for (int layer = 0; layer < model->num_layers(); ++layer) {
    SCOPED_TRACE("layer " + std::to_string(layer));
    const auto neurons = static_cast<size_t>(model->NeuronCount(layer));
    // One sentinel float past the block: the body must not write it.
    std::vector<float> out(kRows * neurons + 1, -7.0f);
    std::vector<float*> outs(static_cast<size_t>(layer) + 1, nullptr);
    outs.back() = out.data();
    DE_ASSERT_OK(
        model->ForwardRows(block.data(), kRows, layer, outs.data(), &scratch));
    EXPECT_EQ(out.back(), -7.0f);
    EXPECT_GE(scratch.size(),
              kRows * static_cast<size_t>(model->RowScratchFloats(layer)));
    for (size_t r = 0; r < kRows; ++r) {
      Tensor single;
      DE_ASSERT_OK(model->ForwardTo(inputs[r], layer, &single));
      EXPECT_EQ(std::memcmp(out.data() + r * neurons, single.data(),
                            neurons * sizeof(float)),
                0)
          << "row " << r;
    }
  }
}

TEST(ModelTest, FinalizeRejectsIncompatibleLayers) {
  Rng rng(1);
  Model model("bad", Shape({8}));
  model.AddLayer(std::make_unique<Dense>("fc", 4, 2, &rng));  // expects 4
  EXPECT_TRUE(model.Finalize().IsInvalidArgument());
}

TEST(ModelZooTest, MiniVggGeometry) {
  ModelPtr model = MakeMiniVgg(1);
  EXPECT_EQ(model->input_shape(), Shape({32, 32, 3}));
  // Five ReLU activation layers.
  EXPECT_EQ(model->activation_layers().size(), 5u);
  // Early activation layer: 32x32x8 = 8192 neurons.
  EXPECT_EQ(model->NeuronCount(model->activation_layers().front()), 8192);
  // Late activation layer: 64 neurons.
  EXPECT_EQ(model->NeuronCount(model->activation_layers().back()), 64);
}

TEST(ModelZooTest, MiniResNetGeometryAndCost) {
  ModelPtr vgg = MakeMiniVgg(1);
  ModelPtr resnet = MakeMiniResNet(1);
  EXPECT_EQ(resnet->input_shape(), Shape({32, 32, 3}));
  EXPECT_EQ(resnet->activation_layers().size(), 4u);
  // MiniResNet is the costlier model, mirroring ResNet50 vs VGG16-on-CIFAR.
  EXPECT_GT(resnet->CumulativeMacs(resnet->num_layers() - 1),
            vgg->CumulativeMacs(vgg->num_layers() - 1));
}

TEST(ModelZooTest, MiniVggForwardProducesFiniteOutputs) {
  ModelPtr model = MakeMiniVgg(3);
  Rng rng(4);
  Tensor input(Shape({32, 32, 3}));
  for (int64_t i = 0; i < input.NumElements(); ++i) {
    input[i] = static_cast<float>(rng.NextGaussian());
  }
  Tensor out;
  ASSERT_TRUE(model->ForwardTo(input, model->num_layers() - 1, &out).ok());
  float sum = 0.0f;
  for (int64_t i = 0; i < out.NumElements(); ++i) {
    ASSERT_TRUE(std::isfinite(out[i]));
    sum += out[i];
  }
  EXPECT_NEAR(sum, 1.0f, 1e-4);  // softmax head
}

}  // namespace
}  // namespace nn
}  // namespace deepeverest
