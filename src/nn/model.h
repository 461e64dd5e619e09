#ifndef DEEPEVEREST_NN_MODEL_H_
#define DEEPEVEREST_NN_MODEL_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "nn/layer.h"

namespace deepeverest {
namespace nn {

/// \brief A frozen sequential DNN.
///
/// A Model owns an ordered list of layers and, after Finalize(), knows every
/// layer's output shape and cumulative inference cost. DeepEverest addresses
/// neurons as (layer index, flat element index within that layer's output).
class Model {
 public:
  Model(std::string name, Shape input_shape)
      : name_(std::move(name)), input_shape_(std::move(input_shape)) {}

  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  /// Appends a layer. Must be called before Finalize().
  void AddLayer(LayerPtr layer);

  /// Validates shapes layer-by-layer and precomputes per-layer geometry and
  /// cost. Must be called exactly once after the last AddLayer().
  Status Finalize();

  const std::string& name() const { return name_; }
  const Shape& input_shape() const { return input_shape_; }
  bool finalized() const { return finalized_; }
  int num_layers() const { return static_cast<int>(layers_.size()); }
  const Layer& layer(int i) const { return *layers_[static_cast<size_t>(i)]; }

  /// Output shape of layer `i` (Finalize() required).
  const Shape& layer_output_shape(int i) const;

  /// Number of neurons (scalar outputs) of layer `i`.
  int64_t NeuronCount(int layer) const {
    return layer_output_shape(layer).NumElements();
  }

  /// Multiply-accumulates required to compute layers [0, layer] for one
  /// input. Inference always starts at layer 0 (paper section 4.6: only
  /// queried layers are stored, so there is no partial starting point).
  int64_t CumulativeMacs(int layer) const;

  /// Indices of the queryable (ReLU / residual-output) layers, in order.
  /// The evaluation's "early/mid/late" layers are picked from this list.
  const std::vector<int>& activation_layers() const {
    return activation_layers_;
  }

  /// OK when `shape` is the model's input shape; otherwise the
  /// InvalidArgument that ForwardTo returns for such an input.
  Status CheckInputShape(const Shape& shape) const;

  /// Runs `n` inputs through layers [0, upto_layer] as one block: `in`
  /// holds n contiguous rows of input_shape() (the caller vouches for the
  /// shape, see CheckInputShape). outs[i], for i in [0, upto_layer], is
  /// either null or a block of n contiguous rows of NeuronCount(i) floats
  /// that receives layer i's output; the layers with a null block run in
  /// `scratch`. `scratch` grows to RowScratchFloats(upto_layer) * n floats
  /// and is never shrunk, so a caller that keeps it allocates nothing once
  /// it is large enough. n = 0 touches nothing.
  Status ForwardRows(const float* in, size_t n, int upto_layer,
                     float* const* outs, std::vector<float>* scratch) const;

  /// Floats of `scratch` per input row that ForwardRows(.., upto_layer, ..)
  /// uses (Finalize() required).
  int64_t RowScratchFloats(int upto_layer) const;

  /// Runs the model through layer `upto_layer` (inclusive) and returns that
  /// layer's output: ForwardRows over one input.
  Status ForwardTo(const Tensor& input, int upto_layer, Tensor* out) const;

  /// Runs the full model once and captures every layer's output (used by
  /// preprocessing, which materialises all layers in a single pass):
  /// ForwardRows over one input with every layer's block given.
  Status ForwardAll(const Tensor& input, std::vector<Tensor>* outputs) const;

 private:
  /// FailedPrecondition before Finalize(), OutOfRange unless `upto_layer`
  /// is one of the layers.
  Status CheckUpto(int upto_layer) const;
  const Shape& LayerInputShape(size_t i) const;

  std::string name_;
  Shape input_shape_;
  bool finalized_ = false;
  std::vector<LayerPtr> layers_;
  std::vector<Shape> output_shapes_;
  std::vector<int64_t> cumulative_macs_;
  // Per layer i: the largest output of layers [0, i) and the largest layer
  // scratch of layers [0, i], in floats per input row.
  std::vector<int64_t> max_floats_before_;
  std::vector<int64_t> max_layer_scratch_;
  std::vector<int> activation_layers_;
};

using ModelPtr = std::unique_ptr<Model>;

}  // namespace nn
}  // namespace deepeverest

#endif  // DEEPEVEREST_NN_MODEL_H_
