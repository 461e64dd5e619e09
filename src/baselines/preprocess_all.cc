#include "baselines/preprocess_all.h"

#include "common/stopwatch.h"

namespace deepeverest {
namespace baselines {

Status PreprocessAll::Preprocess() {
  if (preprocessed_) return Status::OK();
  const nn::Model& model = inference_->model();
  const uint32_t num_inputs = inference_->dataset().size();

  // Single pass: one ForwardAll per input filling every layer's matrix.
  Stopwatch watch;
  std::vector<storage::LayerActivationMatrix> matrices;
  matrices.reserve(static_cast<size_t>(model.num_layers()));
  for (int layer = 0; layer < model.num_layers(); ++layer) {
    matrices.push_back(storage::LayerActivationMatrix::Make(
        num_inputs, static_cast<uint64_t>(model.NeuronCount(layer))));
  }
  std::vector<Tensor> outputs;
  for (uint32_t id = 0; id < num_inputs; ++id) {
    DE_RETURN_NOT_OK(inference_->ComputeAllLayers(id, &outputs));
    for (int layer = 0; layer < model.num_layers(); ++layer) {
      const Tensor& out = outputs[static_cast<size_t>(layer)];
      std::copy(out.vec().begin(), out.vec().end(),
                matrices[static_cast<size_t>(layer)].MutableRow(id));
    }
  }
  preprocess_inference_seconds_ = watch.ElapsedSeconds();

  watch.Reset();
  for (int layer = 0; layer < model.num_layers(); ++layer) {
    DE_RETURN_NOT_OK(activations_.Save(
        model.name(), layer, matrices[static_cast<size_t>(layer)],
        /*sync=*/true));
  }
  preprocess_persist_seconds_ = watch.ElapsedSeconds();
  preprocessed_ = true;
  return Status::OK();
}

Result<storage::LayerActivationMatrix> PreprocessAll::GetLayer(
    int layer, nn::InferenceReceipt* /*receipt*/) {
  auto result = activations_.Load(inference_->model().name(), layer);
  if (!result.ok() && result.status().IsNotFound()) {
    return Status::FailedPrecondition(
        "PreprocessAll::Preprocess() has not been run");
  }
  return result;
}

}  // namespace baselines
}  // namespace deepeverest
