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

Status Layer::Forward(const Tensor& input, Tensor* out) const {
  DE_ASSIGN_OR_RETURN(Shape out_shape, OutputShape(input.shape()));
  Tensor result(std::move(out_shape));
  std::vector<float> scratch(
      static_cast<size_t>(ScratchFloats(input.shape())));
  ForwardRows(input.shape(), 1, input.data(), result.data(), scratch.data());
  *out = std::move(result);
  return Status::OK();
}

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

void Conv2D::ForwardRows(const Shape& input, size_t n, const float* in,
                         float* out, float*) const {
  ForwardImages(n, input.dim(0), input.dim(1), in, out);
}

void Conv2D::ForwardImages(size_t n, int64_t height, int64_t width,
                           const float* in, float* out) const {
  // "Same" padding: each image is convolved on its own, so no tap reads a
  // neighbouring image of the block.
  const auto h = static_cast<size_t>(height);
  const auto w = static_cast<size_t>(width);
  const size_t in_row = h * w * static_cast<size_t>(in_channels_);
  const size_t out_row = h * w * static_cast<size_t>(out_channels_);
  const kernels::KernelTable& table = kernels::Active();
  for (size_t i = 0; i < n; ++i) {
    table.conv2d_hwc(in + i * in_row, h, w, static_cast<size_t>(in_channels_),
                     weights_.data(), bias_.data(),
                     static_cast<size_t>(out_channels_),
                     static_cast<size_t>(kernel_), out + i * out_row);
  }
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

void Dense::ForwardRows(const Shape&, size_t n, const float* in, float* out,
                        float*) const {
  // The block is an n x 1 image and the layer a 1x1 convolution over it:
  // each output row starts from the bias and adds its input units in
  // ascending order.
  kernels::Active().conv2d_hwc(in, n, 1, static_cast<size_t>(in_units_),
                               weights_.data(), bias_.data(),
                               static_cast<size_t>(out_units_), 1, out);
}

int64_t Dense::MacsFor(const Shape&) const {
  return static_cast<int64_t>(in_units_) * out_units_;
}

// ---------------------------------------------------------------------------
// Relu
// ---------------------------------------------------------------------------

Result<Shape> Relu::OutputShape(const Shape& input) const { return input; }

void Relu::ForwardRows(const Shape& input, size_t n, const float* in,
                       float* out, float*) const {
  const size_t count = n * static_cast<size_t>(input.NumElements());
  for (size_t i = 0; i < count; ++i) out[i] = std::max(in[i], 0.0f);
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

void MaxPool2D::ForwardRows(const Shape& input, size_t n, const float* in,
                            float* out, float*) const {
  const int64_t oh = input.dim(0) / 2;
  const int64_t ow = input.dim(1) / 2;
  const int64_t c = input.dim(2);
  // OutputShape checked the rank and the even spatial dims, so every index
  // below is in bounds.
  const int64_t in_row = 2 * ow * c;  // floats per input image row
  float* o = out;
  for (size_t i = 0; i < n; ++i) {
    const float* image = in + static_cast<int64_t>(i) * 2 * oh * in_row;
    for (int64_t h = 0; h < oh; ++h) {
      for (int64_t w = 0; w < ow; ++w) {
        const float* top = image + 2 * h * in_row + 2 * w * c;
        const float* bottom = top + in_row;
        for (int64_t ch = 0; ch < c; ++ch) {
          *o++ = std::max(std::max(top[ch], top[c + ch]),
                          std::max(bottom[ch], bottom[c + ch]));
        }
      }
    }
  }
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

void GlobalAvgPool::ForwardRows(const Shape& input, size_t n, const float* in,
                                float* out, float*) const {
  const int64_t hw = input.dim(0) * input.dim(1);
  const int64_t c = input.dim(2);
  const float inv = 1.0f / static_cast<float>(hw);
  for (size_t r = 0; r < n; ++r) {
    const float* image = in + static_cast<int64_t>(r) * hw * c;
    float* o = out + static_cast<int64_t>(r) * c;
    std::fill(o, o + c, 0.0f);
    for (int64_t i = 0; i < hw; ++i) {
      for (int64_t ch = 0; ch < c; ++ch) o[ch] += image[i * c + ch];
    }
    for (int64_t ch = 0; ch < c; ++ch) o[ch] *= inv;
  }
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

void BatchNorm::ForwardRows(const Shape& input, size_t n, const float* in,
                            float* out, float*) const {
  ForwardPixels(n * static_cast<size_t>(input.dim(0) * input.dim(1)), in, out);
}

void BatchNorm::ForwardPixels(size_t pixels, const float* in,
                              float* out) const {
  const auto c = static_cast<size_t>(channels_);
  for (size_t i = 0; i < pixels; ++i) {
    for (size_t ch = 0; ch < c; ++ch) {
      out[i * c + ch] = in[i * c + ch] * scale_[ch] + shift_[ch];
    }
  }
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

void Flatten::ForwardRows(const Shape& input, size_t n, const float* in,
                          float* out, float*) const {
  std::copy(in, in + n * static_cast<size_t>(input.NumElements()), out);
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

void ResidualBlock::ForwardRows(const Shape& input, size_t n, const float* in,
                                float* out, float* scratch) const {
  const int64_t h = input.dim(0);
  const int64_t w = input.dim(1);
  const size_t pixels = n * static_cast<size_t>(h * w);
  const size_t count = pixels * static_cast<size_t>(out_channels_);
  float* t1 = scratch;
  float* t2 = scratch + count;
  conv1_.ForwardImages(n, h, w, in, t1);
  bn1_.ForwardPixels(pixels, t1, t2);
  for (size_t i = 0; i < count; ++i) t2[i] = std::max(t2[i], 0.0f);
  conv2_.ForwardImages(n, h, w, t2, t1);
  bn2_.ForwardPixels(pixels, t1, out);

  const float* skip = in;
  if (projection_ != nullptr) {
    projection_->ForwardImages(n, h, w, in, t1);
    skip = t1;
  }
  for (size_t i = 0; i < count; ++i) {
    out[i] = std::max(out[i] + skip[i], 0.0f);  // add skip, then relu
  }
}

int64_t ResidualBlock::ScratchFloats(const Shape& input) const {
  return 2 * input.dim(0) * input.dim(1) * out_channels_;
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

void Softmax::ForwardRows(const Shape& input, size_t n, const float* in,
                          float* out, float*) const {
  const auto d = static_cast<size_t>(input.dim(0));
  for (size_t r = 0; r < n; ++r) {
    const float* x = in + r * d;
    float* y = out + r * d;
    float max_v = x[0];
    for (size_t i = 0; i < d; ++i) max_v = std::max(max_v, x[i]);
    double sum = 0.0;
    for (size_t i = 0; i < d; ++i) {
      y[i] = std::exp(x[i] - max_v);
      sum += y[i];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (size_t i = 0; i < d; ++i) y[i] *= inv;
  }
}

int64_t Softmax::MacsFor(const Shape& input) const {
  return input.NumElements();
}

}  // namespace nn
}  // namespace deepeverest
