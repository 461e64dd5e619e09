#include "nn/model.h"

#include <algorithm>

namespace deepeverest {
namespace nn {

void Model::AddLayer(LayerPtr layer) {
  DE_CHECK(!finalized_) << "AddLayer after Finalize";
  layers_.push_back(std::move(layer));
}

Status Model::Finalize() {
  if (finalized_) return Status::FailedPrecondition("model already finalized");
  if (layers_.empty()) return Status::InvalidArgument("model has no layers");
  Shape current = input_shape_;
  int64_t macs = 0;
  int64_t max_floats_before = 0;
  int64_t max_layer_scratch = 0;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const Layer& layer = *layers_[i];
    auto shape = layer.OutputShape(current);
    if (!shape.ok()) {
      return Status::InvalidArgument("layer " + std::to_string(i) + " (" +
                                     layer.name() +
                                     "): " + shape.status().message());
    }
    macs += layer.MacsFor(current);
    if (i > 0) {
      max_floats_before = std::max(max_floats_before, current.NumElements());
    }
    max_layer_scratch =
        std::max(max_layer_scratch, layer.ScratchFloats(current));
    max_floats_before_.push_back(max_floats_before);
    max_layer_scratch_.push_back(max_layer_scratch);
    current = std::move(shape).value();
    output_shapes_.push_back(current);
    cumulative_macs_.push_back(macs);
    if (layer.kind() == LayerKind::kRelu ||
        layer.kind() == LayerKind::kResidualBlock) {
      activation_layers_.push_back(static_cast<int>(i));
    }
  }
  finalized_ = true;
  return Status::OK();
}

const Shape& Model::layer_output_shape(int i) const {
  DE_CHECK(finalized_);
  DE_CHECK_GE(i, 0);
  DE_CHECK_LT(i, num_layers());
  return output_shapes_[static_cast<size_t>(i)];
}

int64_t Model::CumulativeMacs(int layer) const {
  DE_CHECK(finalized_);
  DE_CHECK_GE(layer, 0);
  DE_CHECK_LT(layer, num_layers());
  return cumulative_macs_[static_cast<size_t>(layer)];
}

Status Model::CheckInputShape(const Shape& shape) const {
  if (shape != input_shape_) {
    return Status::InvalidArgument("input shape " + shape.ToString() +
                                   " does not match model input " +
                                   input_shape_.ToString());
  }
  return Status::OK();
}

Status Model::CheckUpto(int upto_layer) const {
  if (!finalized_) return Status::FailedPrecondition("model not finalized");
  if (upto_layer < 0 || upto_layer >= num_layers()) {
    return Status::OutOfRange("layer " + std::to_string(upto_layer) +
                              " out of range [0, " +
                              std::to_string(num_layers()) + ")");
  }
  return Status::OK();
}

const Shape& Model::LayerInputShape(size_t i) const {
  return i == 0 ? input_shape_ : output_shapes_[i - 1];
}

int64_t Model::RowScratchFloats(int upto_layer) const {
  DE_CHECK(finalized_);
  DE_CHECK_GE(upto_layer, 0);
  DE_CHECK_LT(upto_layer, num_layers());
  const auto i = static_cast<size_t>(upto_layer);
  return 2 * max_floats_before_[i] + max_layer_scratch_[i];
}

Status Model::ForwardRows(const float* in, size_t n, int upto_layer,
                          float* const* outs,
                          std::vector<float>* scratch) const {
  DE_RETURN_NOT_OK(CheckUpto(upto_layer));
  if (n == 0) return Status::OK();
  // A layer without an out block writes to one of two blocks of n rows of
  // the largest output before the last layer, alternating, so it never
  // overwrites its own input. The layers' own scratch follows them.
  const auto last = static_cast<size_t>(upto_layer);
  const size_t block = n * static_cast<size_t>(max_floats_before_[last]);
  const size_t need = n * static_cast<size_t>(RowScratchFloats(upto_layer));
  if (scratch->size() < need) scratch->resize(need);
  float* const blocks[2] = {scratch->data(), scratch->data() + block};
  float* layer_scratch = scratch->data() + 2 * block;
  const float* src = in;
  for (size_t i = 0; i <= last; ++i) {
    float* dst = outs[i] != nullptr ? outs[i] : blocks[i % 2];
    layers_[i]->ForwardRows(LayerInputShape(i), n, src, dst, layer_scratch);
    src = dst;
  }
  return Status::OK();
}

Status Model::ForwardTo(const Tensor& input, int upto_layer,
                        Tensor* out) const {
  DE_RETURN_NOT_OK(CheckUpto(upto_layer));
  DE_RETURN_NOT_OK(CheckInputShape(input.shape()));
  Tensor result(layer_output_shape(upto_layer));
  std::vector<float*> outs(static_cast<size_t>(upto_layer) + 1, nullptr);
  outs.back() = result.data();
  std::vector<float> scratch;
  DE_RETURN_NOT_OK(
      ForwardRows(input.data(), 1, upto_layer, outs.data(), &scratch));
  *out = std::move(result);
  return Status::OK();
}

Status Model::ForwardAll(const Tensor& input,
                         std::vector<Tensor>* outputs) const {
  if (!finalized_) return Status::FailedPrecondition("model not finalized");
  DE_RETURN_NOT_OK(CheckInputShape(input.shape()));
  std::vector<Tensor> result;
  std::vector<float*> outs;
  result.reserve(layers_.size());
  for (const Shape& shape : output_shapes_) {
    result.emplace_back(shape);
    outs.push_back(result.back().data());
  }
  std::vector<float> scratch;
  DE_RETURN_NOT_OK(ForwardRows(input.data(), 1, num_layers() - 1,
                               outs.data(), &scratch));
  *outputs = std::move(result);
  return Status::OK();
}

}  // namespace nn
}  // namespace deepeverest
