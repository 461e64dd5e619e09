#ifndef DEEPEVEREST_NN_LAYER_H_
#define DEEPEVEREST_NN_LAYER_H_

#include <cstddef>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "tensor/tensor.h"

namespace deepeverest {
namespace nn {

/// \brief Broad layer category. DeepEverest's evaluation distinguishes
/// activation layers (the queryable ones) from conv/bn/pool plumbing.
enum class LayerKind {
  kConv2D,
  kDense,
  kRelu,
  kMaxPool,
  kGlobalAvgPool,
  kBatchNorm,
  kFlatten,
  kResidualBlock,
  kSoftmax,
};

const char* LayerKindToString(LayerKind kind);

/// \brief One layer of a sequential model.
///
/// Layers are immutable after construction (weights are fixed at build time —
/// DeepEverest only ever queries trained, frozen models). Every layer kind has
/// one forward body, ForwardRows, over a block of n inputs stored as n
/// contiguous rows. Each output row depends only on its own input row and is
/// computed by the same ops in the same order whatever n is, so a block's
/// rows are bit-identical to n single-input runs. Forward is the n = 1
/// wrapper over that body.
class Layer {
 public:
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Computes the output shape for `input` or errors if incompatible.
  virtual Result<Shape> OutputShape(const Shape& input) const = 0;

  /// Runs the layer over `n` inputs of shape `input`, which OutputShape must
  /// accept: `in` holds n contiguous rows of input.NumElements() floats and
  /// `out` receives n contiguous rows of OutputShape(input).NumElements()
  /// floats. `scratch` holds n * ScratchFloats(input) floats the body may
  /// overwrite. `in`, `out` and `scratch` must not overlap. Allocates
  /// nothing; n = 0 touches nothing.
  virtual void ForwardRows(const Shape& input, size_t n, const float* in,
                           float* out, float* scratch) const = 0;

  /// Floats of scratch per input row that ForwardRows needs.
  virtual int64_t ScratchFloats(const Shape& /*input*/) const { return 0; }

  /// Runs the layer on one input. `out` is resized/overwritten.
  Status Forward(const Tensor& input, Tensor* out) const;

  /// Multiply-accumulate count for one input of shape `input`; drives the
  /// simulated-GPU cost model.
  virtual int64_t MacsFor(const Shape& input) const = 0;

  LayerKind kind() const { return kind_; }
  const std::string& name() const { return name_; }

 protected:
  Layer(LayerKind kind, std::string name)
      : kind_(kind), name_(std::move(name)) {}

 private:
  LayerKind kind_;
  std::string name_;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace nn
}  // namespace deepeverest

#endif  // DEEPEVEREST_NN_LAYER_H_
