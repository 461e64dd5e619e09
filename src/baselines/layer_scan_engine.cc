#include "baselines/layer_scan_engine.h"

#include <numeric>

#include "common/stopwatch.h"
#include "core/nta.h"

namespace deepeverest {
namespace baselines {

Result<core::TopKResult> LayerScanEngine::ExecuteSpec(
    const core::QuerySpec& spec, core::QueryContext* ctx) {
  DE_RETURN_NOT_OK(core::ValidateSpec(spec));
  if (spec.has_derived_group()) {
    return Status::InvalidArgument(
        name() + " answers explicit neuron groups only");
  }
  const core::NeuronGroup group{spec.layer, spec.neurons};
  DE_RETURN_NOT_OK(core::ValidateNeuronGroup(inference_->model(), group));
  if (spec.target_id >= 0 &&
      static_cast<uint64_t>(spec.target_id) >= inference_->dataset().size()) {
    return Status::OutOfRange("target input out of range");
  }
  if (ctx != nullptr) DE_RETURN_NOT_OK(ctx->CheckRunnable());

  Stopwatch watch;
  nn::InferenceReceipt receipt;
  DE_ASSIGN_OR_RETURN(const storage::LayerActivationMatrix matrix,
                      GetLayer(spec.layer, &receipt));
  DE_ASSIGN_OR_RETURN(core::TopKResult result,
                      core::ScanSpec(matrix, group, spec));
  if (ctx != nullptr) ctx->receipt += receipt;
  result.stats.inputs_run = receipt.inputs_run;
  result.stats.batches_run = receipt.batches_run;
  result.stats.simulated_gpu_seconds = receipt.simulated_gpu_seconds;
  result.stats.wall_seconds = watch.ElapsedSeconds();
  return result;
}

Result<storage::LayerActivationMatrix> ComputeLayerMatrix(
    nn::InferenceEngine* inference, int layer, nn::InferenceReceipt* receipt) {
  const uint32_t num_inputs = inference->dataset().size();
  const uint64_t num_neurons =
      static_cast<uint64_t>(inference->model().NeuronCount(layer));
  std::vector<uint32_t> ids(num_inputs);
  std::iota(ids.begin(), ids.end(), 0u);
  std::vector<std::vector<float>> rows;
  DE_RETURN_NOT_OK(inference->ComputeLayer(ids, layer, &rows, receipt));
  storage::LayerActivationMatrix matrix =
      storage::LayerActivationMatrix::Make(num_inputs, num_neurons);
  for (uint32_t id = 0; id < num_inputs; ++id) {
    std::copy(rows[id].begin(), rows[id].end(), matrix.MutableRow(id));
  }
  return matrix;
}

}  // namespace baselines
}  // namespace deepeverest
