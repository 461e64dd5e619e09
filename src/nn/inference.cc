#include "nn/inference.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/worker_set.h"

namespace deepeverest {
namespace nn {

namespace {

// MACs of work per fan-out thread: a call of n inputs of m MACs each uses
// min(n, 1 + n * m / kMacGrain) threads. MiniVgg's NTA rounds fan out;
// TinyMlp's few-input calls stay on the calling thread.
constexpr int64_t kMacGrain = int64_t{1} << 18;

size_t FanOutWidth(size_t n, int64_t macs_per_input) {
  const int64_t macs = static_cast<int64_t>(n) * macs_per_input;
  return std::min(n, 1 + static_cast<size_t>(macs / kMacGrain));
}

// Runs item(i) -> Status for every i in [0, n) over `width` threads of the
// worker set. Returns the status of the lowest failing i (OK if none).
template <typename ItemFn>
Status RunItems(size_t n, size_t width, const ItemFn& item) {
  common::Mutex mu;
  size_t first_failure = n;
  Status failure;
  common::ParallelFor(n, width, [&](size_t i) {
    Status status = item(i);
    if (status.ok()) return;
    common::MutexLock lock(&mu);
    if (i < first_failure) {
      first_failure = i;
      failure = std::move(status);
    }
  });
  return failure;
}

// Runs layer `layer` for the inputs id(0), ..., id(n - 1), copying input
// i's activations to dst(i): NeuronCount(layer) floats the caller allocated.
template <typename IdFn, typename DstFn>
Status ForwardLayer(const Model& model, const data::Dataset& dataset,
                    int layer, size_t n, const IdFn& id, const DstFn& dst) {
  const size_t width = FanOutWidth(n, model.CumulativeMacs(layer));
  return RunItems(n, width, [&](size_t i) {
    Tensor activations;
    DE_RETURN_NOT_OK(
        model.ForwardTo(dataset.input(id(i)), layer, &activations));
    std::copy(activations.vec().begin(), activations.vec().end(), dst(i));
    return Status::OK();
  });
}

Status OutOfRangeId(uint64_t id, uint64_t size) {
  return Status::OutOfRange("inputID " + std::to_string(id) +
                            " out of range [0, " + std::to_string(size) + ")");
}

}  // namespace

Status InferenceEngine::CheckLayer(int layer) const {
  if (layer < 0 || layer >= model_->num_layers()) {
    return Status::OutOfRange("layer " + std::to_string(layer) +
                              " out of range [0, " +
                              std::to_string(model_->num_layers()) + ")");
  }
  return Status::OK();
}

void InferenceEngine::Charge(int64_t n, int64_t per_batch, int64_t macs,
                             const Stopwatch& watch,
                             InferenceReceipt* receipt) {
  if (simulate_device_latency_) {
    // Block for each modeled dispatch, without holding any lock: concurrent
    // callers overlap their device waits, as on a real accelerator.
    for (int64_t pos = 0; pos < n; pos += per_batch) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          cost_model_.BatchSeconds(std::min(per_batch, n - pos), batch_size_,
                                   macs)));
    }
  }
  common::MutexLock lock(&stats_mu_);
  for (int64_t pos = 0; pos < n; pos += per_batch) {
    const int64_t batch_n = std::min(per_batch, n - pos);
    const double batch_seconds =
        cost_model_.BatchSeconds(batch_n, batch_size_, macs);
    if (receipt != nullptr) {
      receipt->inputs_run += batch_n;
      receipt->batches_run += 1.0;
      receipt->macs += batch_n * macs;
      receipt->simulated_gpu_seconds += batch_seconds;
    }
    stats_.inputs_run += batch_n;
    stats_.batches_run += 1;
    stats_.macs += batch_n * macs;
    stats_.simulated_gpu_seconds += batch_seconds;
  }
  stats_.wall_seconds += watch.ElapsedSeconds();
}

Status InferenceEngine::ComputeLayer(const std::vector<uint32_t>& input_ids,
                                     int layer,
                                     std::vector<std::vector<float>>* rows,
                                     InferenceReceipt* receipt) {
  rows->clear();
  // Every id is checked before any inference runs: a bad id anywhere in the
  // request leaves `rows` empty and the stats and the receipt unchanged.
  for (const uint32_t id : input_ids) {
    if (id >= dataset_->size()) return OutOfRangeId(id, dataset_->size());
  }
  if (input_ids.empty()) return Status::OK();
  DE_RETURN_NOT_OK(CheckLayer(layer));
  const size_t n = input_ids.size();

  Stopwatch watch;
  std::vector<std::vector<float>> out(n);
  for (std::vector<float>& row : out) {
    row.resize(static_cast<size_t>(model_->NeuronCount(layer)));
  }
  DE_RETURN_NOT_OK(ForwardLayer(
      *model_, *dataset_, layer, n, [&](size_t i) { return input_ids[i]; },
      [&](size_t i) { return out[i].data(); }));
  Charge(static_cast<int64_t>(n), batch_size_,
         model_->CumulativeMacs(layer), watch, receipt);
  *rows = std::move(out);
  return Status::OK();
}

Result<storage::LayerActivationMatrix> InferenceEngine::ComputeLayerMatrix(
    int layer, uint32_t first, uint32_t count, InferenceReceipt* receipt) {
  const uint64_t end = uint64_t{first} + count;
  if (count > 0 && end > dataset_->size()) {
    return OutOfRangeId(end - 1, dataset_->size());
  }
  DE_RETURN_NOT_OK(CheckLayer(layer));

  Stopwatch watch;
  storage::LayerActivationMatrix matrix = storage::LayerActivationMatrix::Make(
      count, static_cast<uint64_t>(model_->NeuronCount(layer)));
  if (count == 0) return matrix;
  DE_RETURN_NOT_OK(ForwardLayer(
      *model_, *dataset_, layer, count,
      [&](size_t i) { return first + static_cast<uint32_t>(i); },
      [&](size_t i) { return matrix.MutableRow(static_cast<uint32_t>(i)); }));
  Charge(count, batch_size_, model_->CumulativeMacs(layer), watch, receipt);
  return matrix;
}

Status InferenceEngine::ComputeAllLayers(
    const std::vector<int>& layers,
    std::vector<storage::LayerActivationMatrix>* matrices,
    InferenceReceipt* receipt) {
  matrices->clear();
  for (const int layer : layers) DE_RETURN_NOT_OK(CheckLayer(layer));
  const uint32_t n = dataset_->size();
  const int64_t macs = model_->CumulativeMacs(model_->num_layers() - 1);

  Stopwatch watch;
  std::vector<storage::LayerActivationMatrix> out;
  out.reserve(layers.size());
  for (const int layer : layers) {
    out.push_back(storage::LayerActivationMatrix::Make(
        n, static_cast<uint64_t>(model_->NeuronCount(layer))));
  }
  DE_RETURN_NOT_OK(RunItems(n, FanOutWidth(n, macs), [&](size_t i) {
    const uint32_t id = static_cast<uint32_t>(i);
    std::vector<Tensor> outputs;
    DE_RETURN_NOT_OK(model_->ForwardAll(dataset_->input(id), &outputs));
    for (size_t j = 0; j < layers.size(); ++j) {
      const std::vector<float>& acts =
          outputs[static_cast<size_t>(layers[j])].vec();
      std::copy(acts.begin(), acts.end(), out[j].MutableRow(id));
    }
    return Status::OK();
  }));
  // One metered batch per input, as a per-input preprocessing pass is.
  Charge(n, /*per_batch=*/1, macs, watch, receipt);
  *matrices = std::move(out);
  return Status::OK();
}

}  // namespace nn
}  // namespace deepeverest
