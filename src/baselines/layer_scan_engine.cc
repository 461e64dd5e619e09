#include "baselines/layer_scan_engine.h"

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

}  // namespace baselines
}  // namespace deepeverest
