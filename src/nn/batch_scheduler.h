#ifndef DEEPEVEREST_NN_BATCH_SCHEDULER_H_
#define DEEPEVEREST_NN_BATCH_SCHEDULER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/qos.h"
#include "common/status.h"
#include "nn/inference.h"

namespace deepeverest {
namespace nn {

struct BatchSchedulerOptions {
  /// How long a partial batch waits for other queries' inputs before being
  /// flushed anyway, for kBatch-class requests. The window trades a little
  /// latency for batch fill; it should stay well below one batch's device
  /// time.
  double linger_seconds = 5e-4;
  /// Linger for kInteractive requests. The default 0 means an interactive
  /// request never waits out a window: it is dispatched as soon as a
  /// dispatcher sees it, *sealing* any partial batch it joined (the batch
  /// launches immediately with whatever else is pending on that layer).
  double interactive_linger_seconds = 0.0;
  /// Linger for kBestEffort requests: background work waits longest, for
  /// maximally full batches.
  double best_effort_linger_seconds = 2e-3;
  /// Threads running coalesced batches against the engine. Each dispatcher
  /// models one device stream: with n dispatchers, n batches overlap their
  /// (simulated) device time, as n CUDA streams would.
  int num_dispatchers = 1;
};

/// \brief Per-QoS-class scheduler counters (monotonic since construction).
struct BatchSchedulerClassStats {
  int64_t requests = 0;         // ComputeLayer calls of this class
  int64_t inputs_enqueued = 0;  // sum of those calls' request sizes
  int64_t inputs_dispatched = 0;
  /// Batches that carried at least one of this class's rows. A shared batch
  /// counts once for every class aboard.
  int64_t batches_joined = 0;

  /// Mean occupancy (in [0, 1]) of the device batches this class rode in.
  /// Interactive traffic is expected to run emptier (it seals batches);
  /// batch/best-effort traffic fuller (it lingers).
  double AverageFill(int batch_size) const {
    if (batches_joined <= 0 || batch_size <= 0) return 0.0;
    return static_cast<double>(inputs_dispatched) /
           (static_cast<double>(batches_joined) *
            static_cast<double>(batch_size));
  }
};

/// \brief Aggregate scheduler counters (monotonic since construction).
struct BatchSchedulerStats {
  int64_t requests = 0;          // ComputeLayer calls accepted
  int64_t inputs_enqueued = 0;   // sum of request sizes
  int64_t batches_dispatched = 0;
  int64_t inputs_dispatched = 0;
  int64_t shared_batches = 0;  // batches serving >1 request (cross-query fill)
  int64_t linger_flushes = 0;  // partial batches flushed by the linger window
  /// Partial batches launched early because an interactive request was
  /// aboard (the "seal" path; a subset of linger_flushes).
  int64_t sealed_by_interactive = 0;

  /// Counters split by the requests' QoS class, indexed by QosIndex().
  std::array<BatchSchedulerClassStats, kNumQosClasses> per_class{};

  /// Dispatched batches by occupancy fraction: bucket i counts batches
  /// whose fill was in (i/8, (i+1)/8]. A healthy batching setup shows mass
  /// in the top buckets; interactive sealing shows up as mass lower down.
  /// Exported at /v1/metrics as a Prometheus histogram.
  static constexpr int kFillBuckets = 8;
  std::array<int64_t, kFillBuckets> fill_histogram{};

  /// Mean batch occupancy in [0, 1]: how full the device lanes ran.
  double AverageFill(int batch_size) const {
    if (batches_dispatched <= 0 || batch_size <= 0) return 0.0;
    return static_cast<double>(inputs_dispatched) /
           (static_cast<double>(batches_dispatched) *
            static_cast<double>(batch_size));
  }
};

/// \brief Coalesces concurrent same-layer ComputeLayer calls into shared
/// device batches, QoS-aware.
///
/// Callers block in ComputeLayer while dispatcher threads drain per-layer
/// queues: a batch is launched as soon as a layer has the engine's batch_size
/// inputs pending, or when any pending request has lingered past its class's
/// linger window (partial flush). Interactive requests have a zero window
/// by default, so they flush immediately and seal whatever partial batch
/// they joined; batch/best-effort requests wait longer for fuller batches.
/// Among ready layers, dispatch prefers the layer carrying the most urgent
/// class, then the oldest head — so interactive inference never queues
/// behind a backlog of ready bulk layers.
///
/// One dispatcher turn is one engine call. On a layer with f >= 1 full
/// batches pending, the turn takes its even share of them, ceil(f /
/// num_dispatchers) device batches, so a deep queue costs one handoff per
/// dispatcher instead of one per batch; a partial flush is one batch. The
/// engine meters (and, when simulating the device, sleeps) per batch, and
/// the scheduler's counters and receipt shares are split the same way, per
/// logical batch of batch_size inputs.
///
/// Who wakes whom: a thread is woken only for work that concerns it. Each
/// blocked caller waits on its own request's signal, set once under the
/// lock when its last row lands. An arrival wakes one dispatcher, unless
/// its layer is not ready yet and an idle dispatcher is already sleeping
/// until an earlier flush deadline. A dispatcher that leaves work behind
/// after its gather wakes one more: when that work is ready, or when it
/// lingers and no idle dispatcher is timing its deadline (one idle
/// dispatcher at a time sleeps until the earliest deadline; the others
/// sleep until woken). Only shutdown wakes every dispatcher.
///
/// Each caller receives exactly the rows it asked for and
/// an InferenceReceipt charging it its own inputs plus its occupancy share
/// of every shared launch — so per-query `inputs_run` is exact under any
/// interleaving, while shared batches drive `batches_run` and simulated GPU
/// seconds below what the queries would pay dispatching alone (the GPU cost
/// model bills a launch the same whether its lanes are full or idle).
///
/// Results are bit-identical to direct engine calls: the forward pass is
/// per-input pure, so batch composition cannot change any activation.
///
/// Thread-safety: ComputeLayer and stats() are safe to call concurrently.
/// The engine must outlive the scheduler; the destructor drains pending
/// work and joins the dispatchers.
class BatchingInferenceScheduler {
 public:
  /// Does not take ownership of `engine`.
  BatchingInferenceScheduler(InferenceEngine* engine,
                             BatchSchedulerOptions options = {});
  ~BatchingInferenceScheduler();

  BatchingInferenceScheduler(const BatchingInferenceScheduler&) = delete;
  BatchingInferenceScheduler& operator=(const BatchingInferenceScheduler&) =
      delete;

  /// Drop-in for InferenceEngine::ComputeLayer: computes layer `layer` for
  /// each input in `input_ids` (rows->at(i) corresponds to input_ids[i]),
  /// possibly sharing device batches with concurrent callers. Blocks until
  /// every requested row is available. This call's exact cost — fractional
  /// for shared launches — is *added* to `receipt` when non-null. `qos` is
  /// the calling query's class; it selects the linger window and the
  /// dispatch priority of the batches this call rides in (results are
  /// identical across classes — only latency and batch fill differ).
  Status ComputeLayer(const std::vector<uint32_t>& input_ids, int layer,
                      std::vector<std::vector<float>>* rows,
                      InferenceReceipt* receipt = nullptr,
                      QosClass qos = QosClass::kBatch);

  BatchSchedulerStats stats() const;

  int batch_size() const { return batch_size_; }
  const InferenceEngine& engine() const { return *engine_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// One blocked ComputeLayer call. Lives on the caller's stack; the queue
  /// holds pointers only while ids remain undispatched, so a request may be
  /// out of the queue (fully dispatched) but not yet done (rows pending).
  struct Request {
    const std::vector<uint32_t>* ids = nullptr;
    std::vector<std::vector<float>>* rows = nullptr;
    InferenceReceipt receipt;
    /// Signalled (under mu_) once, when `done` is set: the one wake-up
    /// this caller gets.
    common::CondVar done_cv;
    size_t dispatched = 0;  // ids handed to some batch so far
    size_t completed = 0;   // ids whose rows (or failure) have resolved
    Status status;          // first error, if any
    bool done = false;
    QosClass qos = QosClass::kBatch;
    Clock::time_point arrival;
    /// arrival + the class linger window: when this request forces a
    /// partial flush of its layer.
    Clock::time_point flush_at;
  };

  struct LayerQueue {
    std::deque<Request*> requests;  // FIFO; front may be partially consumed
    size_t pending_inputs = 0;      // sum of undispatched ids
  };

  /// A request's contribution to one engine call.
  struct Slice {
    Request* request;
    size_t src_begin;  // index into request->ids
    size_t count;
  };

  /// What one scan of pending_ found.
  struct Selection {
    bool has_ready = false;
    int layer = 0;         // the ready layer to serve, when has_ready
    bool partial = false;  // it holds less than one full batch
    int best_class = 0;    // QosIndex of its most urgent request
    Clock::time_point arrival{};  // its head's arrival
    /// The earliest flush deadline among layers not ready yet (max() when
    /// there are none).
    Clock::time_point next_deadline = Clock::time_point::max();
  };

  void DispatcherLoop();
  /// Picks the layer to serve at `now` (see DispatcherLoop).
  Selection SelectLocked(Clock::time_point now) const REQUIRES(mu_);
  /// Pops up to `capacity` pending ids of `layer` into one engine call.
  void GatherLocked(int layer, size_t capacity,
                    std::vector<uint32_t>* batch_ids,
                    std::vector<Slice>* slices) REQUIRES(mu_);
  /// Runs one gathered engine call of one or more logical batches (mu_ is
  /// released around the engine call and reacquired before scattering rows
  /// + receipt shares back to the contributing requests, so mu_ is held on
  /// entry AND exit).
  void RunBatch(int layer, std::vector<uint32_t> batch_ids,
                std::vector<Slice> slices) REQUIRES(mu_);

  InferenceEngine* engine_;
  // Derived from BatchSchedulerOptions at construction; the options struct
  // itself is not kept (nothing may change after the dispatchers start).
  int batch_size_;
  int num_dispatchers_;
  std::array<std::chrono::nanoseconds, kNumQosClasses> linger_;

  mutable common::Mutex mu_;
  common::CondVar work_cv_;  // wakes dispatchers (callers: Request::done_cv)
  bool stopping_ GUARDED_BY(mu_) = false;
  /// The flush deadline an idle dispatcher is sleeping until, or max() when
  /// none is: a lingering partial needs one timer, not every idle thread.
  Clock::time_point timer_ GUARDED_BY(mu_) = Clock::time_point::max();
  std::map<int, LayerQueue> pending_ GUARDED_BY(mu_);
  BatchSchedulerStats stats_ GUARDED_BY(mu_);

  std::vector<std::thread> dispatchers_;
};

}  // namespace nn
}  // namespace deepeverest

#endif  // DEEPEVEREST_NN_BATCH_SCHEDULER_H_
