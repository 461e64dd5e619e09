#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace deepeverest {
namespace nn {
namespace {

TEST(ReluTest, ClampsNegatives) {
  Relu relu("relu");
  Tensor in(Shape({4}), {-1.0f, 0.0f, 2.0f, -0.5f});
  Tensor out;
  ASSERT_TRUE(relu.Forward(in, &out).ok());
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[1], 0.0f);
  EXPECT_EQ(out[2], 2.0f);
  EXPECT_EQ(out[3], 0.0f);
}

TEST(ReluTest, ShapePreserved) {
  Relu relu("relu");
  auto shape = relu.OutputShape(Shape({3, 3, 2}));
  ASSERT_TRUE(shape.ok());
  EXPECT_EQ(*shape, Shape({3, 3, 2}));
}

TEST(DenseTest, KnownLinearCombination) {
  Rng rng(1);
  Dense dense("fc", 2, 1, &rng);
  // With random weights we can't assert exact values, but linearity must
  // hold: f(2x) - f(0) == 2 * (f(x) - f(0)).
  Tensor zero(Shape({2}), {0.0f, 0.0f});
  Tensor x(Shape({2}), {1.0f, -1.0f});
  Tensor x2(Shape({2}), {2.0f, -2.0f});
  Tensor f0, fx, fx2;
  ASSERT_TRUE(dense.Forward(zero, &f0).ok());
  ASSERT_TRUE(dense.Forward(x, &fx).ok());
  ASSERT_TRUE(dense.Forward(x2, &fx2).ok());
  EXPECT_NEAR(fx2[0] - f0[0], 2.0f * (fx[0] - f0[0]), 1e-5);
}

TEST(DenseTest, RejectsWrongInputWidth) {
  Rng rng(1);
  Dense dense("fc", 4, 2, &rng);
  EXPECT_FALSE(dense.OutputShape(Shape({5})).ok());
  EXPECT_FALSE(dense.OutputShape(Shape({4, 1})).ok());
}

TEST(Conv2DTest, OutputShapeSamePadding) {
  Rng rng(2);
  Conv2D conv("conv", 3, 8, 3, &rng);
  auto shape = conv.OutputShape(Shape({16, 16, 3}));
  ASSERT_TRUE(shape.ok());
  EXPECT_EQ(*shape, Shape({16, 16, 8}));
}

TEST(Conv2DTest, RejectsChannelMismatch) {
  Rng rng(2);
  Conv2D conv("conv", 3, 8, 3, &rng);
  EXPECT_FALSE(conv.OutputShape(Shape({16, 16, 4})).ok());
}

TEST(Conv2DTest, TranslationEquivarianceInInterior) {
  // A 1x1 kernel conv must be a per-pixel linear map: shifting the input
  // shifts the output identically.
  Rng rng(3);
  Conv2D conv("conv", 1, 1, 1, &rng);
  Tensor a(Shape({4, 4, 1}));
  a.At(1, 1, 0) = 1.0f;
  Tensor b(Shape({4, 4, 1}));
  b.At(2, 2, 0) = 1.0f;
  Tensor fa, fb;
  ASSERT_TRUE(conv.Forward(a, &fa).ok());
  ASSERT_TRUE(conv.Forward(b, &fb).ok());
  EXPECT_NEAR(fa.At(1, 1, 0), fb.At(2, 2, 0), 1e-6);
}

TEST(Conv2DTest, LinearityInInput) {
  Rng rng(4);
  Conv2D conv("conv", 2, 3, 3, &rng);
  Rng data_rng(5);
  Tensor x(Shape({6, 6, 2})), y(Shape({6, 6, 2}));
  for (int64_t i = 0; i < x.NumElements(); ++i) {
    x[i] = static_cast<float>(data_rng.NextGaussian());
    y[i] = static_cast<float>(data_rng.NextGaussian());
  }
  Tensor sum(Shape({6, 6, 2}));
  for (int64_t i = 0; i < x.NumElements(); ++i) sum[i] = x[i] + y[i];
  Tensor fx, fy, fsum, fzero;
  Tensor zero(Shape({6, 6, 2}));
  ASSERT_TRUE(conv.Forward(x, &fx).ok());
  ASSERT_TRUE(conv.Forward(y, &fy).ok());
  ASSERT_TRUE(conv.Forward(sum, &fsum).ok());
  ASSERT_TRUE(conv.Forward(zero, &fzero).ok());
  for (int64_t i = 0; i < fsum.NumElements(); ++i) {
    // f(x+y) = f(x) + f(y) - f(0)  (bias counted once)
    ASSERT_NEAR(fsum[i], fx[i] + fy[i] - fzero[i], 1e-4);
  }
}

TEST(MaxPoolTest, TakesWindowMax) {
  MaxPool2D pool("pool");
  Tensor in(Shape({2, 2, 1}));
  in.At(0, 0, 0) = 1.0f;
  in.At(0, 1, 0) = 4.0f;
  in.At(1, 0, 0) = -2.0f;
  in.At(1, 1, 0) = 3.0f;
  Tensor out;
  ASSERT_TRUE(pool.Forward(in, &out).ok());
  EXPECT_EQ(out.shape(), Shape({1, 1, 1}));
  EXPECT_EQ(out.At(0, 0, 0), 4.0f);
}

TEST(MaxPoolTest, RejectsOddSpatialDims) {
  MaxPool2D pool("pool");
  EXPECT_FALSE(pool.OutputShape(Shape({3, 4, 1})).ok());
}

TEST(GlobalAvgPoolTest, AveragesPerChannel) {
  GlobalAvgPool gap("gap");
  Tensor in(Shape({2, 2, 2}));
  // Channel 0: 1,2,3,4 -> mean 2.5; channel 1: all 8 -> mean 8.
  in.At(0, 0, 0) = 1.0f;
  in.At(0, 1, 0) = 2.0f;
  in.At(1, 0, 0) = 3.0f;
  in.At(1, 1, 0) = 4.0f;
  for (int h = 0; h < 2; ++h) {
    for (int w = 0; w < 2; ++w) in.At(h, w, 1) = 8.0f;
  }
  Tensor out;
  ASSERT_TRUE(gap.Forward(in, &out).ok());
  EXPECT_EQ(out.shape(), Shape({2}));
  EXPECT_NEAR(out[0], 2.5f, 1e-6);
  EXPECT_NEAR(out[1], 8.0f, 1e-6);
}

TEST(BatchNormTest, AffinePerChannel) {
  Rng rng(6);
  BatchNorm bn("bn", 2, &rng);
  Tensor zero(Shape({1, 1, 2}));
  Tensor one(Shape({1, 1, 2}));
  one.At(0, 0, 0) = 1.0f;
  one.At(0, 0, 1) = 1.0f;
  Tensor two(Shape({1, 1, 2}));
  two.At(0, 0, 0) = 2.0f;
  two.At(0, 0, 1) = 2.0f;
  Tensor f0, f1, f2;
  ASSERT_TRUE(bn.Forward(zero, &f0).ok());
  ASSERT_TRUE(bn.Forward(one, &f1).ok());
  ASSERT_TRUE(bn.Forward(two, &f2).ok());
  // Affine: f(2) - f(1) == f(1) - f(0) per channel.
  EXPECT_NEAR(f2[0] - f1[0], f1[0] - f0[0], 1e-6);
  EXPECT_NEAR(f2[1] - f1[1], f1[1] - f0[1], 1e-6);
}

TEST(FlattenTest, PreservesValuesRowMajor) {
  Flatten flatten("flatten");
  Tensor in(Shape({2, 1, 2}), {1.0f, 2.0f, 3.0f, 4.0f});
  Tensor out;
  ASSERT_TRUE(flatten.Forward(in, &out).ok());
  EXPECT_EQ(out.shape(), Shape({4}));
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(out[i], in[i]);
}

TEST(SoftmaxTest, SumsToOneAndOrders) {
  Softmax softmax("softmax");
  Tensor in(Shape({3}), {1.0f, 3.0f, 2.0f});
  Tensor out;
  ASSERT_TRUE(softmax.Forward(in, &out).ok());
  EXPECT_NEAR(out[0] + out[1] + out[2], 1.0f, 1e-6);
  EXPECT_GT(out[1], out[2]);
  EXPECT_GT(out[2], out[0]);
}

TEST(SoftmaxTest, NumericallyStableForLargeLogits) {
  Softmax softmax("softmax");
  Tensor in(Shape({2}), {1000.0f, 1001.0f});
  Tensor out;
  ASSERT_TRUE(softmax.Forward(in, &out).ok());
  EXPECT_TRUE(std::isfinite(out[0]));
  EXPECT_NEAR(out[0] + out[1], 1.0f, 1e-6);
}

TEST(ResidualBlockTest, ShapeAndNonNegativity) {
  Rng rng(7);
  ResidualBlock block("block", 2, 4, &rng);
  auto shape = block.OutputShape(Shape({4, 4, 2}));
  ASSERT_TRUE(shape.ok());
  EXPECT_EQ(*shape, Shape({4, 4, 4}));

  Rng data_rng(8);
  Tensor in(Shape({4, 4, 2}));
  for (int64_t i = 0; i < in.NumElements(); ++i) {
    in[i] = static_cast<float>(data_rng.NextGaussian());
  }
  Tensor out;
  ASSERT_TRUE(block.Forward(in, &out).ok());
  for (int64_t i = 0; i < out.NumElements(); ++i) {
    EXPECT_GE(out[i], 0.0f);  // final ReLU
  }
}

TEST(ResidualBlockTest, IdentitySkipWhenChannelsMatch) {
  // Same in/out channels: no projection; MacsFor must count both convs.
  Rng rng(9);
  ResidualBlock block("block", 3, 3, &rng);
  const Shape in({4, 4, 3});
  // 2 convs (3x3) + 2 bn + add.
  const int64_t conv_macs = 4 * 4 * 9 * 3 * 3;
  EXPECT_EQ(block.MacsFor(in), 2 * conv_macs + 2 * (4 * 4 * 3) + 4 * 4 * 3);
}

// Every layer kind's row-block body against its n = 1 wrapper, row by
// row, bit for bit; the body writes nothing past its n output rows, and an
// empty block writes nothing at all.
TEST(ForwardRowsTest, BlockRowsAreSingleRowsBitForBit) {
  Rng rng(11);
  struct Case {
    LayerPtr layer;
    Shape input;
  };
  std::vector<Case> cases;
  cases.push_back({std::make_unique<Conv2D>("conv", 3, 5, 3, &rng),
                   Shape({6, 4, 3})});
  cases.push_back({std::make_unique<Dense>("fc", 7, 5, &rng), Shape({7})});
  cases.push_back({std::make_unique<Relu>("relu"), Shape({4, 4, 2})});
  cases.push_back({std::make_unique<MaxPool2D>("pool"), Shape({6, 4, 3})});
  cases.push_back({std::make_unique<GlobalAvgPool>("gap"), Shape({3, 5, 4})});
  cases.push_back({std::make_unique<BatchNorm>("bn", 3, &rng),
                   Shape({4, 2, 3})});
  cases.push_back({std::make_unique<Flatten>("flatten"), Shape({2, 3, 4})});
  cases.push_back({std::make_unique<ResidualBlock>("block", 2, 4, &rng),
                   Shape({4, 6, 2})});
  cases.push_back({std::make_unique<ResidualBlock>("same", 3, 3, &rng),
                   Shape({4, 4, 3})});
  cases.push_back({std::make_unique<Softmax>("softmax"), Shape({9})});
  constexpr size_t kRows = 5;
  constexpr float kSentinel = -123.0f;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.layer->name());
    auto out_shape = c.layer->OutputShape(c.input);
    ASSERT_TRUE(out_shape.ok());
    const auto in_floats = static_cast<size_t>(c.input.NumElements());
    const auto out_floats = static_cast<size_t>(out_shape->NumElements());
    std::vector<float> in(kRows * in_floats);
    for (float& v : in) v = static_cast<float>(rng.NextGaussian());
    std::vector<float> scratch(
        kRows * static_cast<size_t>(c.layer->ScratchFloats(c.input)));
    std::vector<float> out(kRows * out_floats + 1, kSentinel);

    c.layer->ForwardRows(c.input, 0, in.data(), out.data(), scratch.data());
    EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                            [](float v) { return v == kSentinel; }));

    c.layer->ForwardRows(c.input, kRows, in.data(), out.data(),
                         scratch.data());
    EXPECT_EQ(out.back(), kSentinel);
    for (size_t r = 0; r < kRows; ++r) {
      Tensor single(c.input,
                    std::vector<float>(in.begin() + r * in_floats,
                                       in.begin() + (r + 1) * in_floats));
      Tensor expected;
      ASSERT_TRUE(c.layer->Forward(single, &expected).ok());
      ASSERT_EQ(expected.vec().size(), out_floats);
      EXPECT_EQ(std::memcmp(out.data() + r * out_floats, expected.data(),
                            out_floats * sizeof(float)),
                0)
          << "row " << r;
    }
  }
}

TEST(MacsTest, ConvAndDenseFormulas) {
  Rng rng(10);
  Conv2D conv("conv", 3, 8, 3, &rng);
  EXPECT_EQ(conv.MacsFor(Shape({32, 32, 3})), 32 * 32 * 9 * 3 * 8);
  Dense dense("fc", 100, 10, &rng);
  EXPECT_EQ(dense.MacsFor(Shape({100})), 1000);
}

}  // namespace
}  // namespace nn
}  // namespace deepeverest
