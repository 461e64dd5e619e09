#include "baselines/preprocess_all.h"

#include <numeric>

#include "common/stopwatch.h"

namespace deepeverest {
namespace baselines {

Status PreprocessAll::Preprocess() {
  if (preprocessed_) return Status::OK();
  const nn::Model& model = inference_->model();

  // Single pass: every input runs through every layer once, filling every
  // layer's matrix.
  Stopwatch watch;
  std::vector<int> layers(static_cast<size_t>(model.num_layers()));
  std::iota(layers.begin(), layers.end(), 0);
  std::vector<storage::LayerActivationMatrix> matrices;
  DE_RETURN_NOT_OK(inference_->ComputeAllLayers(layers, &matrices));
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
