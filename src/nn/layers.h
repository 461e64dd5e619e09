#ifndef DEEPEVEREST_NN_LAYERS_H_
#define DEEPEVEREST_NN_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/layer.h"

namespace deepeverest {
namespace nn {

/// \brief 2D convolution over HWC tensors, stride 1, "same" zero padding.
///
/// Weights are laid out [kernel_h][kernel_w][in_c][out_c]; initialised
/// He-normal from an explicit seed so models are reproducible.
class Conv2D : public Layer {
 public:
  Conv2D(std::string name, int in_channels, int out_channels, int kernel,
         Rng* rng);

  Result<Shape> OutputShape(const Shape& input) const override;
  void ForwardRows(const Shape& input, size_t n, const float* in, float* out,
                   float* scratch) const override;
  int64_t MacsFor(const Shape& input) const override;

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }

  /// The body of ForwardRows: `n` images of height x width x in_channels,
  /// one after another.
  void ForwardImages(size_t n, int64_t height, int64_t width, const float* in,
                     float* out) const;

 private:
  int in_channels_;
  int out_channels_;
  int kernel_;
  std::vector<float> weights_;  // [kh][kw][ic][oc]
  std::vector<float> bias_;     // [oc]
};

/// \brief Fully connected layer over rank-1 tensors.
class Dense : public Layer {
 public:
  Dense(std::string name, int in_units, int out_units, Rng* rng);

  Result<Shape> OutputShape(const Shape& input) const override;
  void ForwardRows(const Shape& input, size_t n, const float* in, float* out,
                   float* scratch) const override;
  int64_t MacsFor(const Shape& input) const override;

 private:
  int in_units_;
  int out_units_;
  std::vector<float> weights_;  // [in][out]
  std::vector<float> bias_;     // [out]
};

/// \brief Elementwise max(x, 0). These are the layers DeepEverest queries:
/// their outputs are the "activation values" of the paper.
class Relu : public Layer {
 public:
  explicit Relu(std::string name) : Layer(LayerKind::kRelu, std::move(name)) {}

  Result<Shape> OutputShape(const Shape& input) const override;
  void ForwardRows(const Shape& input, size_t n, const float* in, float* out,
                   float* scratch) const override;
  int64_t MacsFor(const Shape& input) const override;
};

/// \brief 2x2 max pooling with stride 2 over HWC tensors.
class MaxPool2D : public Layer {
 public:
  explicit MaxPool2D(std::string name)
      : Layer(LayerKind::kMaxPool, std::move(name)) {}

  Result<Shape> OutputShape(const Shape& input) const override;
  void ForwardRows(const Shape& input, size_t n, const float* in, float* out,
                   float* scratch) const override;
  int64_t MacsFor(const Shape& input) const override;
};

/// \brief Global average pooling: HWC -> C.
class GlobalAvgPool : public Layer {
 public:
  explicit GlobalAvgPool(std::string name)
      : Layer(LayerKind::kGlobalAvgPool, std::move(name)) {}

  Result<Shape> OutputShape(const Shape& input) const override;
  void ForwardRows(const Shape& input, size_t n, const float* in, float* out,
                   float* scratch) const override;
  int64_t MacsFor(const Shape& input) const override;
};

/// \brief Frozen batch normalisation: per-channel affine transform with
/// fixed statistics (inference mode only).
class BatchNorm : public Layer {
 public:
  BatchNorm(std::string name, int channels, Rng* rng);

  Result<Shape> OutputShape(const Shape& input) const override;
  void ForwardRows(const Shape& input, size_t n, const float* in, float* out,
                   float* scratch) const override;
  int64_t MacsFor(const Shape& input) const override;

  /// The body of ForwardRows over `pixels` pixels of `channels` values.
  void ForwardPixels(size_t pixels, const float* in, float* out) const;

 private:
  int channels_;
  std::vector<float> scale_;
  std::vector<float> shift_;
};

/// \brief Reshapes any tensor to rank 1.
class Flatten : public Layer {
 public:
  explicit Flatten(std::string name)
      : Layer(LayerKind::kFlatten, std::move(name)) {}

  Result<Shape> OutputShape(const Shape& input) const override;
  void ForwardRows(const Shape& input, size_t n, const float* in, float* out,
                   float* scratch) const override;
  int64_t MacsFor(const Shape& input) const override;
};

/// \brief ResNet basic block: conv-bn-relu-conv-bn + skip, then relu.
///
/// When `out_channels != in_channels` the skip path uses a 1x1 projection.
/// Implemented as a composite layer so the surrounding model stays a simple
/// sequence (the paper's layer numbering counts blocks' activation outputs).
class ResidualBlock : public Layer {
 public:
  ResidualBlock(std::string name, int in_channels, int out_channels, Rng* rng);

  Result<Shape> OutputShape(const Shape& input) const override;
  /// Runs conv1 -> bn1 -> relu -> conv2 -> bn2 over two blocks of scratch,
  /// then adds the skip path and clamps in `out`.
  void ForwardRows(const Shape& input, size_t n, const float* in, float* out,
                   float* scratch) const override;
  int64_t ScratchFloats(const Shape& input) const override;
  int64_t MacsFor(const Shape& input) const override;

 private:
  int in_channels_;
  int out_channels_;
  Conv2D conv1_;
  BatchNorm bn1_;
  Conv2D conv2_;
  BatchNorm bn2_;
  std::unique_ptr<Conv2D> projection_;  // 1x1 conv, only if channels change.
};

/// \brief Numerically stable softmax over rank-1 tensors.
class Softmax : public Layer {
 public:
  explicit Softmax(std::string name)
      : Layer(LayerKind::kSoftmax, std::move(name)) {}

  Result<Shape> OutputShape(const Shape& input) const override;
  void ForwardRows(const Shape& input, size_t n, const float* in, float* out,
                   float* scratch) const override;
  int64_t MacsFor(const Shape& input) const override;
};

}  // namespace nn
}  // namespace deepeverest

#endif  // DEEPEVEREST_NN_LAYERS_H_
