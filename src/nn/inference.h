#ifndef DEEPEVEREST_NN_INFERENCE_H_
#define DEEPEVEREST_NN_INFERENCE_H_

#include <cstdint>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "data/dataset.h"
#include "nn/model.h"
#include "storage/activation_store.h"

namespace deepeverest {
namespace nn {

/// \brief Counters accumulated across InferenceEngine calls.
///
/// `inputs_run` is the hardware-independent cost metric the paper reports in
/// Table 3 ("number of inputs run by the DNN at query time").
/// `simulated_gpu_seconds` applies the batch cost model below so experiments
/// can also report GPU-shaped timings on this CPU-only machine.
struct InferenceStats {
  int64_t inputs_run = 0;
  int64_t batches_run = 0;
  int64_t macs = 0;
  double wall_seconds = 0.0;
  double simulated_gpu_seconds = 0.0;

  InferenceStats operator-(const InferenceStats& other) const {
    InferenceStats d;
    d.inputs_run = inputs_run - other.inputs_run;
    d.batches_run = batches_run - other.batches_run;
    d.macs = macs - other.macs;
    d.wall_seconds = wall_seconds - other.wall_seconds;
    d.simulated_gpu_seconds =
        simulated_gpu_seconds - other.simulated_gpu_seconds;
    return d;
  }
};

/// \brief Per-call inference metering: exactly the work the engine (or the
/// cross-query batching scheduler) performed on behalf of ONE caller.
///
/// Unlike a before/after `InferenceEngine::stats()` delta — which under
/// concurrency silently absorbs other threads' inference — a receipt is
/// accumulated at the call site and therefore attributes work exactly,
/// regardless of what other queries run in the same window. `batches_run`
/// is fractional: when the BatchingInferenceScheduler merges several
/// queries' inputs into one shared device batch, each caller is charged its
/// occupancy share of that launch (and of its simulated GPU time).
struct InferenceReceipt {
  int64_t inputs_run = 0;
  double batches_run = 0.0;
  int64_t macs = 0;
  double simulated_gpu_seconds = 0.0;

  InferenceReceipt& operator+=(const InferenceReceipt& other) {
    inputs_run += other.inputs_run;
    batches_run += other.batches_run;
    macs += other.macs;
    simulated_gpu_seconds += other.simulated_gpu_seconds;
    return *this;
  }
};

/// \brief Cost model mimicking GPU batch execution (see DESIGN.md §1).
///
/// A launched batch of n <= batch_size inputs takes (approximately) the same
/// time as a full batch because idle lanes do not speed it up:
///   time(n, layer) = ceil(n / batch_size) *
///                    (launch_overhead + batch_size * macs(layer) * sec/mac)
/// This reproduces the paper's Figure 7 plateau: once partitions shrink
/// below the optimal batch size, more partitions stop helping.
struct GpuCostModel {
  double seconds_per_mac = 2.0e-12;       // ~500 GMAC/s effective
  double launch_overhead_seconds = 2e-4;  // per-batch fixed cost

  double BatchSeconds(int64_t n, int64_t batch_size,
                      int64_t macs_per_input) const {
    const int64_t launches = (n + batch_size - 1) / batch_size;
    return static_cast<double>(launches) *
           (launch_overhead_seconds + static_cast<double>(batch_size) *
                                          static_cast<double>(macs_per_input) *
                                          seconds_per_mac);
  }
};

/// \brief Runs batched DNN inference over a dataset and meters every call.
///
/// This is the single chokepoint through which DeepEverest, NTA, and all
/// baselines compute activations, so their inference costs are directly
/// comparable.
///
/// Threads: every compute call spreads its forward passes over the
/// process-wide worker set (common::ParallelFor: the calling thread plus
/// one helper per other core). A call of n inputs of m MACs each
/// uses min(n, 1 + n * m / 2^18) threads, so a call of a few small inputs
/// (TinyMlp's NTA rounds) stays on the calling thread. Only one call fans
/// out at a time; a call made while another is fanning out runs inline, so
/// concurrent callers (QueryService workers) run inference on at most
/// callers + cores - 1 threads.
/// The calling thread allocates every output row before the fan-out and
/// each forward pass writes only its own row, so the results are
/// bit-identical to a serial loop. Metering happens after the forward
/// passes, on the calling thread, per logical batch of `batch_size`.
///
/// Thread-safety: the compute calls are safe to call concurrently — the
/// forward pass itself is pure (const model + dataset) and the shared
/// counters are mutex-guarded. `stats()` returns a coherent snapshot of the
/// *global* counters; under concurrent queries a before/after delta
/// attributes *all* inference in the window, including other threads' —
/// pass an InferenceReceipt to the compute calls for exact per-caller
/// attribution instead. Configure the cost model and
/// `set_simulate_device_latency` before sharing the engine across threads.
class InferenceEngine {
 public:
  /// Does not take ownership; `model` and `dataset` must outlive the engine.
  /// `batch_size` is the throughput-optimal batch (paper: 128 for VGG16, 64
  /// for ResNet50).
  InferenceEngine(const Model* model, const data::Dataset* dataset,
                  int batch_size)
      : model_(model), dataset_(dataset), batch_size_(batch_size) {
    DE_CHECK_GT(batch_size, 0);
  }

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  const Model& model() const { return *model_; }
  const data::Dataset& dataset() const { return *dataset_; }
  int batch_size() const { return batch_size_; }

  /// Computes layer `layer`'s activations for each input in `input_ids`.
  /// `rows->at(i)` is the flat activation vector of input_ids[i].
  /// Processes in batches of batch_size; each batch is metered. When
  /// `receipt` is non-null, this call's exact cost is *added* to it — the
  /// attribution-safe alternative to a before/after stats() delta. On any
  /// error (a bad id or layer, or the first failing input's forward pass)
  /// `rows` is left empty and the stats and the receipt are unchanged.
  Status ComputeLayer(const std::vector<uint32_t>& input_ids, int layer,
                      std::vector<std::vector<float>>* rows,
                      InferenceReceipt* receipt = nullptr);

  /// ComputeLayer over the consecutive inputs [first, first + count),
  /// written straight into the rows of one activation matrix (row i is
  /// input first + i). Metered and failing exactly like ComputeLayer.
  Result<storage::LayerActivationMatrix> ComputeLayerMatrix(
      int layer, uint32_t first, uint32_t count,
      InferenceReceipt* receipt = nullptr);

  /// Computes the activations of every layer in `layers` for every dataset
  /// input in a single pass (one full forward pass per input, as
  /// preprocessing does): `matrices->at(j)` is layer layers[j]'s matrix.
  /// Each input is metered as one batch at full-model cost; `receipt`, when
  /// non-null, is accumulated like in ComputeLayer. On error `matrices` is
  /// left empty and the stats and the receipt are unchanged.
  Status ComputeAllLayers(const std::vector<int>& layers,
                          std::vector<storage::LayerActivationMatrix>* matrices,
                          InferenceReceipt* receipt = nullptr);

  InferenceStats stats() const {
    common::MutexLock lock(&stats_mu_);
    return stats_;
  }
  void ResetStats() {
    common::MutexLock lock(&stats_mu_);
    stats_ = InferenceStats();
  }

  GpuCostModel* mutable_cost_model() { return &cost_model_; }
  const GpuCostModel& cost_model() const { return cost_model_; }

  /// When on, each batch *blocks* for its cost-model time, turning the
  /// simulated accelerator into a real latency source. This is how the
  /// concurrent query service is benchmarked on CPU-only machines: worker
  /// threads overlap device waits exactly as they would overlap GPU
  /// dispatches, while the pure-CPU reference computation still runs.
  void set_simulate_device_latency(bool on) { simulate_device_latency_ = on; }
  bool simulate_device_latency() const { return simulate_device_latency_; }

 private:
  /// OutOfRange unless `layer` is one of the model's layers.
  Status CheckLayer(int layer) const;

  /// Meters `n` forward passes of `macs` MACs each as batches of
  /// `per_batch` inputs (sleeping for each when simulating the device),
  /// then adds the call's wall time, read from `watch`, to the stats.
  void Charge(int64_t n, int64_t per_batch, int64_t macs,
              const Stopwatch& watch, InferenceReceipt* receipt);

  const Model* model_;
  const data::Dataset* dataset_;
  int batch_size_;
  GpuCostModel cost_model_;
  bool simulate_device_latency_ = false;
  mutable common::Mutex stats_mu_;
  InferenceStats stats_ GUARDED_BY(stats_mu_);
};

}  // namespace nn
}  // namespace deepeverest

#endif  // DEEPEVEREST_NN_INFERENCE_H_
