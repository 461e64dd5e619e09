#include "nn/layers.h"

#include <algorithm>
#include <cmath>

#include "kernels/kernels.h"

namespace deepeverest {
namespace nn {

const char* LayerKindToString(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConv2D:
      return "Conv2D";
    case LayerKind::kDense:
      return "Dense";
    case LayerKind::kRelu:
      return "Relu";
    case LayerKind::kMaxPool:
      return "MaxPool2D";
    case LayerKind::kGlobalAvgPool:
      return "GlobalAvgPool";
    case LayerKind::kBatchNorm:
      return "BatchNorm";
    case LayerKind::kFlatten:
      return "Flatten";
    case LayerKind::kResidualBlock:
      return "ResidualBlock";
    case LayerKind::kSoftmax:
      return "Softmax";
  }
  return "?";
}

namespace {

// He-normal initialisation: N(0, sqrt(2 / fan_in)).
void HeNormalInit(std::vector<float>* weights, int fan_in, Rng* rng) {
  const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
  for (float& w : *weights) {
    w = static_cast<float>(rng->NextGaussian() * stddev);
  }
}

Status ExpectRank(const Shape& shape, int rank, const std::string& layer) {
  if (shape.rank() != rank) {
    return Status::InvalidArgument(layer + ": expected rank " +
                                   std::to_string(rank) + " input, got " +
                                   shape.ToString());
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Conv2D
// ---------------------------------------------------------------------------

Conv2D::Conv2D(std::string name, int in_channels, int out_channels, int kernel,
               Rng* rng)
    : Layer(LayerKind::kConv2D, std::move(name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      weights_(static_cast<size_t>(kernel) * kernel * in_channels *
               out_channels),
      bias_(static_cast<size_t>(out_channels), 0.0f) {
  DE_CHECK_GT(kernel, 0);
  DE_CHECK_EQ(kernel % 2, 1);  // "same" padding requires odd kernels.
  HeNormalInit(&weights_, kernel * kernel * in_channels, rng);
}

Result<Shape> Conv2D::OutputShape(const Shape& input) const {
  DE_RETURN_NOT_OK(ExpectRank(input, 3, name()));
  if (input.dim(2) != in_channels_) {
    return Status::InvalidArgument(name() + ": expected " +
                                   std::to_string(in_channels_) +
                                   " channels, got " + input.ToString());
  }
  return Shape({input.dim(0), input.dim(1), out_channels_});
}

Status Conv2D::Forward(const Tensor& input, Tensor* out) const {
  DE_ASSIGN_OR_RETURN(Shape out_shape, OutputShape(input.shape()));
  *out = Tensor(out_shape);
  kernels::Active().conv2d_hwc(
      input.data(), static_cast<size_t>(input.shape().dim(0)),
      static_cast<size_t>(input.shape().dim(1)),
      static_cast<size_t>(in_channels_), weights_.data(), bias_.data(),
      static_cast<size_t>(out_channels_), static_cast<size_t>(kernel_),
      out->data());
  return Status::OK();
}

int64_t Conv2D::MacsFor(const Shape& input) const {
  return input.dim(0) * input.dim(1) * kernel_ * kernel_ * in_channels_ *
         out_channels_;
}

// ---------------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------------

Dense::Dense(std::string name, int in_units, int out_units, Rng* rng)
    : Layer(LayerKind::kDense, std::move(name)),
      in_units_(in_units),
      out_units_(out_units),
      weights_(static_cast<size_t>(in_units) * out_units),
      bias_(static_cast<size_t>(out_units), 0.0f) {
  HeNormalInit(&weights_, in_units, rng);
}

Result<Shape> Dense::OutputShape(const Shape& input) const {
  DE_RETURN_NOT_OK(ExpectRank(input, 1, name()));
  if (input.dim(0) != in_units_) {
    return Status::InvalidArgument(name() + ": expected " +
                                   std::to_string(in_units_) +
                                   " units, got " + input.ToString());
  }
  return Shape({out_units_});
}

Status Dense::Forward(const Tensor& input, Tensor* out) const {
  DE_ASSIGN_OR_RETURN(Shape out_shape, OutputShape(input.shape()));
  *out = Tensor(out_shape);
  // A dense layer is a 1x1 convolution over a 1x1 image.
  kernels::Active().conv2d_hwc(input.data(), 1, 1,
                               static_cast<size_t>(in_units_), weights_.data(),
                               bias_.data(), static_cast<size_t>(out_units_), 1,
                               out->data());
  return Status::OK();
}

int64_t Dense::MacsFor(const Shape&) const {
  return static_cast<int64_t>(in_units_) * out_units_;
}

// ---------------------------------------------------------------------------
// Relu
// ---------------------------------------------------------------------------

Result<Shape> Relu::OutputShape(const Shape& input) const { return input; }

Status Relu::Forward(const Tensor& input, Tensor* out) const {
  *out = input;
  for (float& v : out->vec()) v = std::max(v, 0.0f);
  return Status::OK();
}

int64_t Relu::MacsFor(const Shape& input) const { return input.NumElements(); }

// ---------------------------------------------------------------------------
// MaxPool2D
// ---------------------------------------------------------------------------

Result<Shape> MaxPool2D::OutputShape(const Shape& input) const {
  DE_RETURN_NOT_OK(ExpectRank(input, 3, name()));
  if (input.dim(0) % 2 != 0 || input.dim(1) % 2 != 0) {
    return Status::InvalidArgument(
        name() + ": spatial dims must be even, got " + input.ToString());
  }
  return Shape({input.dim(0) / 2, input.dim(1) / 2, input.dim(2)});
}

Status MaxPool2D::Forward(const Tensor& input, Tensor* out) const {
  DE_ASSIGN_OR_RETURN(Shape out_shape, OutputShape(input.shape()));
  *out = Tensor(out_shape);
  const int64_t oh = out_shape.dim(0);
  const int64_t ow = out_shape.dim(1);
  const int64_t c = out_shape.dim(2);
  // OutputShape checked the rank and the even spatial dims, so every index
  // below is in bounds.
  const int64_t in_row = 2 * ow * c;  // floats per input row
  const float* in = input.data();
  float* o = out->data();
  for (int64_t h = 0; h < oh; ++h) {
    for (int64_t w = 0; w < ow; ++w) {
      const float* top = in + 2 * h * in_row + 2 * w * c;
      const float* bottom = top + in_row;
      for (int64_t ch = 0; ch < c; ++ch) {
        *o++ = std::max(std::max(top[ch], top[c + ch]),
                        std::max(bottom[ch], bottom[c + ch]));
      }
    }
  }
  return Status::OK();
}

int64_t MaxPool2D::MacsFor(const Shape& input) const {
  return input.NumElements();
}

// ---------------------------------------------------------------------------
// GlobalAvgPool
// ---------------------------------------------------------------------------

Result<Shape> GlobalAvgPool::OutputShape(const Shape& input) const {
  DE_RETURN_NOT_OK(ExpectRank(input, 3, name()));
  return Shape({input.dim(2)});
}

Status GlobalAvgPool::Forward(const Tensor& input, Tensor* out) const {
  DE_ASSIGN_OR_RETURN(Shape out_shape, OutputShape(input.shape()));
  *out = Tensor(out_shape);
  const int64_t hw = input.shape().dim(0) * input.shape().dim(1);
  const int64_t c = input.shape().dim(2);
  const float* in = input.data();
  float* o = out->data();
  for (int64_t i = 0; i < hw; ++i) {
    for (int64_t ch = 0; ch < c; ++ch) o[ch] += in[i * c + ch];
  }
  const float inv = 1.0f / static_cast<float>(hw);
  for (int64_t ch = 0; ch < c; ++ch) o[ch] *= inv;
  return Status::OK();
}

int64_t GlobalAvgPool::MacsFor(const Shape& input) const {
  return input.NumElements();
}

// ---------------------------------------------------------------------------
// BatchNorm
// ---------------------------------------------------------------------------

BatchNorm::BatchNorm(std::string name, int channels, Rng* rng)
    : Layer(LayerKind::kBatchNorm, std::move(name)),
      channels_(channels),
      scale_(static_cast<size_t>(channels)),
      shift_(static_cast<size_t>(channels)) {
  // Frozen statistics: scale around 1, shift around 0, as a trained and
  // frozen BN layer would be after folding running statistics.
  for (int c = 0; c < channels; ++c) {
    scale_[static_cast<size_t>(c)] =
        1.0f + 0.2f * static_cast<float>(rng->NextGaussian());
    shift_[static_cast<size_t>(c)] =
        0.1f * static_cast<float>(rng->NextGaussian());
  }
}

Result<Shape> BatchNorm::OutputShape(const Shape& input) const {
  DE_RETURN_NOT_OK(ExpectRank(input, 3, name()));
  if (input.dim(2) != channels_) {
    return Status::InvalidArgument(name() + ": expected " +
                                   std::to_string(channels_) +
                                   " channels, got " + input.ToString());
  }
  return input;
}

Status BatchNorm::Forward(const Tensor& input, Tensor* out) const {
  DE_RETURN_NOT_OK(OutputShape(input.shape()).status());
  *out = input;
  const int64_t hw = input.shape().dim(0) * input.shape().dim(1);
  float* o = out->data();
  for (int64_t i = 0; i < hw; ++i) {
    for (int c = 0; c < channels_; ++c) {
      float& v = o[i * channels_ + c];
      v = v * scale_[static_cast<size_t>(c)] + shift_[static_cast<size_t>(c)];
    }
  }
  return Status::OK();
}

int64_t BatchNorm::MacsFor(const Shape& input) const {
  return input.NumElements();
}

// ---------------------------------------------------------------------------
// Flatten
// ---------------------------------------------------------------------------

Result<Shape> Flatten::OutputShape(const Shape& input) const {
  return Shape({input.NumElements()});
}

Status Flatten::Forward(const Tensor& input, Tensor* out) const {
  *out = Tensor(Shape({input.NumElements()}), input.vec());
  return Status::OK();
}

int64_t Flatten::MacsFor(const Shape&) const { return 0; }

// ---------------------------------------------------------------------------
// ResidualBlock
// ---------------------------------------------------------------------------

ResidualBlock::ResidualBlock(std::string name, int in_channels,
                             int out_channels, Rng* rng)
    : Layer(LayerKind::kResidualBlock, name),
      in_channels_(in_channels),
      out_channels_(out_channels),
      conv1_(name + "/conv1", in_channels, out_channels, 3, rng),
      bn1_(name + "/bn1", out_channels, rng),
      conv2_(name + "/conv2", out_channels, out_channels, 3, rng),
      bn2_(name + "/bn2", out_channels, rng) {
  if (in_channels != out_channels) {
    projection_ = std::make_unique<Conv2D>(name + "/proj", in_channels,
                                           out_channels, 1, rng);
  }
}

Result<Shape> ResidualBlock::OutputShape(const Shape& input) const {
  DE_RETURN_NOT_OK(ExpectRank(input, 3, name()));
  if (input.dim(2) != in_channels_) {
    return Status::InvalidArgument(name() + ": expected " +
                                   std::to_string(in_channels_) +
                                   " channels, got " + input.ToString());
  }
  return Shape({input.dim(0), input.dim(1), out_channels_});
}

Status ResidualBlock::Forward(const Tensor& input, Tensor* out) const {
  DE_RETURN_NOT_OK(OutputShape(input.shape()).status());
  Tensor t1, t2;
  DE_RETURN_NOT_OK(conv1_.Forward(input, &t1));
  DE_RETURN_NOT_OK(bn1_.Forward(t1, &t2));
  for (float& v : t2.vec()) v = std::max(v, 0.0f);
  DE_RETURN_NOT_OK(conv2_.Forward(t2, &t1));
  DE_RETURN_NOT_OK(bn2_.Forward(t1, &t2));

  Tensor skip;
  const Tensor* skip_ptr = &input;
  if (projection_ != nullptr) {
    DE_RETURN_NOT_OK(projection_->Forward(input, &skip));
    skip_ptr = &skip;
  }
  float* o = t2.data();
  const float* s = skip_ptr->data();
  const int64_t n = t2.NumElements();
  for (int64_t i = 0; i < n; ++i) {
    o[i] = std::max(o[i] + s[i], 0.0f);  // add skip, then relu
  }
  *out = std::move(t2);
  return Status::OK();
}

int64_t ResidualBlock::MacsFor(const Shape& input) const {
  const Shape mid({input.dim(0), input.dim(1), out_channels_});
  int64_t macs = conv1_.MacsFor(input) + bn1_.MacsFor(mid) +
                 conv2_.MacsFor(mid) + bn2_.MacsFor(mid) + mid.NumElements();
  if (projection_ != nullptr) macs += projection_->MacsFor(input);
  return macs;
}

// ---------------------------------------------------------------------------
// Softmax
// ---------------------------------------------------------------------------

Result<Shape> Softmax::OutputShape(const Shape& input) const {
  DE_RETURN_NOT_OK(ExpectRank(input, 1, name()));
  return input;
}

Status Softmax::Forward(const Tensor& input, Tensor* out) const {
  DE_RETURN_NOT_OK(OutputShape(input.shape()).status());
  *out = input;
  float max_v = out->vec()[0];
  for (float v : out->vec()) max_v = std::max(max_v, v);
  double sum = 0.0;
  for (float& v : out->vec()) {
    v = std::exp(v - max_v);
    sum += v;
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (float& v : out->vec()) v *= inv;
  return Status::OK();
}

int64_t Softmax::MacsFor(const Shape& input) const {
  return input.NumElements();
}

}  // namespace nn
}  // namespace deepeverest
