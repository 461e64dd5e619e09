#include "nn/inference.h"

#include <chrono>
#include <thread>

#include "common/stopwatch.h"

namespace deepeverest {
namespace nn {

Status InferenceEngine::ComputeLayer(const std::vector<uint32_t>& input_ids,
                                     int layer,
                                     std::vector<std::vector<float>>* rows,
                                     InferenceReceipt* receipt) {
  rows->clear();
  // Every id is checked before any inference runs: a bad id anywhere in the
  // request leaves `rows` empty and the stats and the receipt unchanged.
  for (const uint32_t id : input_ids) {
    if (id >= dataset_->size()) {
      return Status::OutOfRange("inputID " + std::to_string(id) +
                                " out of range [0, " +
                                std::to_string(dataset_->size()) + ")");
    }
  }
  rows->reserve(input_ids.size());
  if (input_ids.empty()) return Status::OK();
  const int64_t macs = model_->CumulativeMacs(layer);

  Stopwatch watch;
  size_t pos = 0;
  while (pos < input_ids.size()) {
    const size_t batch_end =
        std::min(pos + static_cast<size_t>(batch_size_), input_ids.size());
    const int64_t batch_n = static_cast<int64_t>(batch_end - pos);
    for (size_t i = pos; i < batch_end; ++i) {
      Tensor out;
      DE_RETURN_NOT_OK(
          model_->ForwardTo(dataset_->input(input_ids[i]), layer, &out));
      rows->push_back(std::move(out.vec()));
    }
    const double batch_seconds =
        cost_model_.BatchSeconds(batch_n, batch_size_, macs);
    if (simulate_device_latency_) {
      // Block for the modeled dispatch, without holding any lock: concurrent
      // callers overlap their device waits, as on a real accelerator.
      std::this_thread::sleep_for(std::chrono::duration<double>(batch_seconds));
    }
    if (receipt != nullptr) {
      receipt->inputs_run += batch_n;
      receipt->batches_run += 1.0;
      receipt->macs += batch_n * macs;
      receipt->simulated_gpu_seconds += batch_seconds;
    }
    {
      common::MutexLock lock(&stats_mu_);
      stats_.inputs_run += batch_n;
      stats_.batches_run += 1;
      stats_.macs += batch_n * macs;
      stats_.simulated_gpu_seconds += batch_seconds;
    }
    pos = batch_end;
  }
  common::MutexLock lock(&stats_mu_);
  stats_.wall_seconds += watch.ElapsedSeconds();
  return Status::OK();
}

Status InferenceEngine::ComputeAllLayers(uint32_t input_id,
                                         std::vector<Tensor>* outputs,
                                         InferenceReceipt* receipt) {
  if (input_id >= dataset_->size()) {
    return Status::OutOfRange("inputID " + std::to_string(input_id) +
                              " out of range [0, " +
                              std::to_string(dataset_->size()) + ")");
  }
  const int64_t macs = model_->CumulativeMacs(model_->num_layers() - 1);
  Stopwatch watch;
  DE_RETURN_NOT_OK(model_->ForwardAll(dataset_->input(input_id), outputs));
  const double batch_seconds = cost_model_.BatchSeconds(1, batch_size_, macs);
  if (simulate_device_latency_) {
    std::this_thread::sleep_for(std::chrono::duration<double>(batch_seconds));
  }
  if (receipt != nullptr) {
    receipt->inputs_run += 1;
    receipt->batches_run += 1.0;
    receipt->macs += macs;
    receipt->simulated_gpu_seconds += batch_seconds;
  }
  common::MutexLock lock(&stats_mu_);
  stats_.inputs_run += 1;
  stats_.batches_run += 1;
  stats_.macs += macs;
  stats_.simulated_gpu_seconds += batch_seconds;
  stats_.wall_seconds += watch.ElapsedSeconds();
  return Status::OK();
}

}  // namespace nn
}  // namespace deepeverest
