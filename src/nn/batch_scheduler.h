#ifndef DEEPEVEREST_NN_BATCH_SCHEDULER_H_
#define DEEPEVEREST_NN_BATCH_SCHEDULER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
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
  /// time, so once a layer has run a batch, every window on it is capped at
  /// the layer's measured engine time per batch.
  double linger_seconds = 5e-4;
  /// Linger for kInteractive requests. The default 0 means an interactive
  /// request never waits out a window: its layer is ready as soon as it
  /// arrives, *sealing* any partial batch it joined (the batch launches
  /// immediately with whatever else is pending on that layer).
  double interactive_linger_seconds = 0.0;
  /// Linger for kBestEffort requests: background work waits longest, for
  /// maximally full batches.
  double best_effort_linger_seconds = 2e-3;
  /// Device streams: how many engine calls may run at once. With n streams,
  /// n batches overlap their (simulated) device time, as n CUDA streams
  /// would. The callers run the engine calls; no thread is started.
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
/// The callers run the batches; the scheduler owns no thread. Until its
/// request is done, a caller takes a free stream (one of num_dispatchers)
/// whenever a layer is ready and runs one engine call of that layer's
/// rows, its own or not, unless the layer's most urgent class is less
/// urgent than its own: an interactive query never waits out a bulk batch
/// it started. A layer is ready when it has batch_size inputs pending, or
/// when a pending request has lingered past its window (partial flush):
/// its class's, capped at the layer's measured engine time per batch. An
/// interactive request's zero window seals the partial batch it joins.
/// Ready layers are served most urgent class first, then oldest head.
///
/// On a layer with f >= 1 full batches pending, one engine call takes its
/// even share, ceil(f / num_dispatchers) device batches; a partial flush is
/// one batch. The engine meters (and, when simulating the device, sleeps)
/// per batch, and the scheduler's counters and receipt shares are split
/// the same way, per logical batch of batch_size inputs.
///
/// Who wakes whom: a caller with nothing to run sleeps on its own
/// request's signal, until its flush deadline while it has rows queued.
/// It is signalled when its last row lands, or to take a free stream for
/// ready work it may run (a caller with rows on that layer first). The
/// signal comes from a caller that leaves, done, after releasing a stream;
/// from one that leaves ready work behind its gather; and from one that
/// sees ready work it may not run. Nothing is broadcast.
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
/// The engine must outlive the scheduler, and no call may be in flight
/// when it is destroyed.
class BatchingInferenceScheduler {
 public:
  /// Does not take ownership of `engine`.
  BatchingInferenceScheduler(InferenceEngine* engine,
                             BatchSchedulerOptions options = {});

  BatchingInferenceScheduler(const BatchingInferenceScheduler&) = delete;
  BatchingInferenceScheduler& operator=(const BatchingInferenceScheduler&) =
      delete;

  /// Drop-in for InferenceEngine::ComputeLayer: computes layer `layer` for
  /// each input in `input_ids` (rows->at(i) corresponds to input_ids[i]),
  /// possibly sharing device batches with concurrent callers. Returns once
  /// every requested row is available, meanwhile running engine calls (of
  /// its own or other callers' rows) on the calling thread. This call's
  /// exact cost — fractional for shared launches — is *added* to `receipt`
  /// when non-null. `qos` is the calling query's class; it selects the
  /// linger window, the dispatch priority of the batches this call rides in
  /// and which batches the call may run (results are identical across
  /// classes — only latency and batch fill differ).
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
    /// What its caller sleeps on (under mu_): signalled when `done` is set,
    /// or to hand the caller a stream for ready work.
    common::CondVar done_cv;
    size_t dispatched = 0;  // ids handed to some batch so far
    size_t completed = 0;   // ids whose rows (or failure) have resolved
    Status status;          // first error, if any
    bool done = false;
    int layer = 0;
    QosClass qos = QosClass::kBatch;
    Clock::time_point arrival;
    Clock::time_point flush_at;  // when it forces a partial flush
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

  /// The ready layer one scan of pending_ picked, if any.
  struct Selection {
    bool has_ready = false;
    int layer = 0;         // the ready layer to serve, when has_ready
    bool partial = false;  // it holds less than one full batch
    int best_class = 0;    // QosIndex of its most urgent request
    Clock::time_point arrival{};  // its head's arrival
  };

  /// Picks the ready layer to serve at `now`.
  Selection SelectLocked(Clock::time_point now) const REQUIRES(mu_);
  /// Takes a stream, gathers `selection`'s engine call, runs it and
  /// releases the stream (mu_ is released around the engine call).
  void RunSelectedLocked(const Selection& selection) REQUIRES(mu_);
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
  /// Wakes one sleeper that may run `selection`'s ready work (preferably one
  /// queued on its layer), if it found any and a stream is free.
  void WakeOneLocked(const Selection& selection) REQUIRES(mu_);

  InferenceEngine* engine_;
  // Derived from BatchSchedulerOptions at construction; the options struct
  // itself is not kept.
  int batch_size_;
  int num_streams_;
  std::array<std::chrono::nanoseconds, kNumQosClasses> linger_;

  mutable common::Mutex mu_;
  int free_streams_ GUARDED_BY(mu_);
  /// Callers asleep in ComputeLayer, in the order they fell asleep.
  std::vector<Request*> sleepers_ GUARDED_BY(mu_);
  /// Per layer, the last engine call's wall time per logical batch: the
  /// cap on its requests' linger windows (max() until measured).
  std::vector<std::chrono::nanoseconds> batch_time_ GUARDED_BY(mu_);
  std::map<int, LayerQueue> pending_ GUARDED_BY(mu_);
  BatchSchedulerStats stats_ GUARDED_BY(mu_);
};

}  // namespace nn
}  // namespace deepeverest

#endif  // DEEPEVEREST_NN_BATCH_SCHEDULER_H_
