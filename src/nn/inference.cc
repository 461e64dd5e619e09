#include "nn/inference.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <thread>

#include "common/worker_set.h"

namespace deepeverest {
namespace nn {

namespace {

// MACs of work per fan-out thread: a call of n inputs of m MACs each uses
// min(n, 1 + n * m / kMacGrain) threads, each running one or more row
// blocks. MiniVgg's NTA rounds fan out; TinyMlp's few-input calls run as
// one block on the calling thread.
constexpr int64_t kMacGrain = int64_t{1} << 18;

size_t FanOutWidth(size_t n, int64_t macs_per_input) {
  const int64_t macs = static_cast<int64_t>(n) * macs_per_input;
  return std::min(n, 1 + static_cast<size_t>(macs / kMacGrain));
}

// Bytes of per-thread scratch one row block may use: a call runs its inputs
// in blocks of as many rows as fit, but at least one, so TinyMlp runs
// hundreds of inputs per block and MiniVgg, whose conv1 output alone is
// 32 KB per input, one. Every thread that runs inference keeps its
// buffers, so this bounds what the process holds beyond the rows it
// returns.
constexpr size_t kBlockBytes = size_t{64} << 10;

// Per-thread buffers of the row-block path: the gathered input rows, the
// output rows of a caller whose rows are not contiguous, each layer's out
// block for Model::ForwardRows, and the model's scratch. They grow to the
// largest block this thread has run and are never released, so a warm
// thread allocates nothing per call.
struct BlockScratch {
  std::vector<float> inputs;
  std::vector<float> rows;
  std::vector<float*> outs;
  std::vector<float> model;
};
thread_local BlockScratch block_scratch;

// Runs block(begin, count) -> Status over [0, n) split into blocks of
// rows of `row_floats` floats of scratch each: as many rows as fit in
// kBlockBytes, but at least `width` blocks when there are that many rows,
// so each fan-out thread gets one. The blocks are the items of one
// ParallelFor over `width` threads. Returns the status of the lowest
// failing block (OK if none).
template <typename BlockFn>
Status RunBlocks(size_t n, size_t width, int64_t row_floats,
                 const BlockFn& block) {
  if (n == 0) return Status::OK();
  const size_t fit = kBlockBytes / (sizeof(float) *
                                    static_cast<size_t>(row_floats));
  const size_t rows =
      std::max<size_t>(1, std::min(fit, (n + width - 1) / width));
  const size_t blocks = (n + rows - 1) / rows;
  common::Mutex mu;
  size_t first_failure = blocks;
  Status failure;
  common::ParallelFor(blocks, std::min(width, blocks), [&](size_t b) {
    const size_t begin = b * rows;
    Status status = block(begin, std::min(rows, n - begin));
    if (status.ok()) return;
    common::MutexLock lock(&mu);
    if (b < first_failure) {
      first_failure = b;
      failure = std::move(status);
    }
  });
  return failure;
}

// Copies the inputs id(begin), ..., id(begin + count - 1) into `rows`, one
// row each, after checking each one's shape in order: the first mismatch
// is ForwardTo's error for that input.
template <typename IdFn>
Status GatherInputs(const Model& model, const data::Dataset& dataset,
                    size_t begin, size_t count, const IdFn& id,
                    std::vector<float>* rows) {
  const auto width = static_cast<size_t>(model.input_shape().NumElements());
  if (rows->size() < count * width) rows->resize(count * width);
  for (size_t i = 0; i < count; ++i) {
    const Tensor& input = dataset.input(id(begin + i));
    DE_RETURN_NOT_OK(model.CheckInputShape(input.shape()));
    std::copy(input.data(), input.data() + width, rows->data() + i * width);
  }
  return Status::OK();
}

// Runs layer `layer` for the inputs id(0), ..., id(n - 1) in row blocks,
// writing input i's activations to dst(i): NeuronCount(layer) floats the
// caller allocated. When `contiguous`, dst(i) + NeuronCount(layer) is
// dst(i + 1) and each block's last layer writes straight into the caller's
// rows; otherwise it writes to the thread's scratch and each row is copied
// out.
template <typename IdFn, typename DstFn>
Status ForwardLayer(const Model& model, const data::Dataset& dataset,
                    int layer, size_t n, const IdFn& id, const DstFn& dst,
                    bool contiguous) {
  const auto neurons = static_cast<size_t>(model.NeuronCount(layer));
  const int64_t row_floats = model.input_shape().NumElements() +
                             model.RowScratchFloats(layer) +
                             (contiguous ? 0 : model.NeuronCount(layer));
  const size_t width = FanOutWidth(n, model.CumulativeMacs(layer));
  return RunBlocks(n, width, row_floats, [&](size_t begin, size_t count) {
    BlockScratch& scratch = block_scratch;
    DE_RETURN_NOT_OK(
        GatherInputs(model, dataset, begin, count, id, &scratch.inputs));
    if (!contiguous && scratch.rows.size() < count * neurons) {
      scratch.rows.resize(count * neurons);
    }
    scratch.outs.assign(static_cast<size_t>(layer) + 1, nullptr);
    scratch.outs.back() = contiguous ? dst(begin) : scratch.rows.data();
    DE_RETURN_NOT_OK(model.ForwardRows(scratch.inputs.data(), count, layer,
                                       scratch.outs.data(), &scratch.model));
    if (contiguous) return Status::OK();
    for (size_t i = 0; i < count; ++i) {
      const float* row = scratch.rows.data() + i * neurons;
      std::copy(row, row + neurons, dst(begin + i));
    }
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
      [&](size_t i) { return out[i].data(); }, /*contiguous=*/false));
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
      [&](size_t i) { return matrix.MutableRow(static_cast<uint32_t>(i)); },
      /*contiguous=*/true));
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
  // Each block runs every layer once: layer l's rows go to the matrix of
  // the last j with layers[j] == l, or to the model's scratch when no
  // matrix wants them.
  const int last = model_->num_layers() - 1;
  std::vector<storage::LayerActivationMatrix*> matrix_of(
      static_cast<size_t>(last) + 1, nullptr);
  for (size_t j = 0; j < layers.size(); ++j) {
    matrix_of[static_cast<size_t>(layers[j])] = &out[j];
  }
  const int64_t row_floats =
      model_->input_shape().NumElements() + model_->RowScratchFloats(last);
  DE_RETURN_NOT_OK(RunBlocks(
      n, FanOutWidth(n, macs), row_floats, [&](size_t begin, size_t count) {
        BlockScratch& scratch = block_scratch;
        const auto first = static_cast<uint32_t>(begin);
        DE_RETURN_NOT_OK(GatherInputs(
            *model_, *dataset_, begin, count,
            [](size_t i) { return static_cast<uint32_t>(i); },
            &scratch.inputs));
        scratch.outs.clear();
        for (storage::LayerActivationMatrix* matrix : matrix_of) {
          scratch.outs.push_back(
              matrix != nullptr ? matrix->MutableRow(first) : nullptr);
        }
        DE_RETURN_NOT_OK(model_->ForwardRows(scratch.inputs.data(), count,
                                             last, scratch.outs.data(),
                                             &scratch.model));
        // A layer asked for twice fills its first matrices by copy.
        for (size_t j = 0; j < layers.size(); ++j) {
          const storage::LayerActivationMatrix* written =
              matrix_of[static_cast<size_t>(layers[j])];
          if (written == &out[j]) continue;
          std::copy(written->Row(first),
                    written->Row(first) + count * written->num_neurons,
                    out[j].MutableRow(first));
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
