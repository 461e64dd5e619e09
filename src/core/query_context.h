#ifndef DEEPEVEREST_CORE_QUERY_CONTEXT_H_
#define DEEPEVEREST_CORE_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/qos.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/query.h"
#include "nn/inference.h"

namespace deepeverest {
namespace nn {
class BatchingInferenceScheduler;
}  // namespace nn

namespace core {

class IqaCache;

/// \brief Per-round progress snapshot for incremental result return and
/// user-driven early stopping (paper section 6).
struct NtaProgress {
  int64_t round = 0;
  /// Current threshold t: no unseen input can beat it.
  double threshold = 0.0;
  /// Worst value currently in the top-k set (+inf / -inf if not yet full).
  double kth_value = 0.0;
  /// For most-similar queries: the θ such that the current top-k is a
  /// θ-approximation of the true answer (t / kth_dist, clamped to [0, 1]).
  double theta_guarantee = 0.0;
  /// Entries already *proven* to belong to the final top-k (dist <= t).
  std::vector<ResultEntry> confirmed;
};

/// \brief Per-query execution context, created once at admission and
/// threaded through every layer the query touches
/// (QueryService → DeepEverest::BeginSpec → QueryExecution →
/// BatchingInferenceScheduler).
///
/// The context carries everything that belongs to ONE query execution and
/// to nothing else: its QoS class, absolute deadline, cooperative
/// cancellation flag, the receipt accumulating its exact inference cost,
/// its progress sink, and the shared services it routes through (IQA cache,
/// cross-query batch scheduler). Query *parameters* (k, θ, distance,
/// tie-completeness) stay in NtaOptions; the split is what lets a future
/// RPC front-end or streaming-progress layer attach per-query state without
/// widening every engine signature again.
///
/// Lifetime/threading: a context serves exactly one query execution. The
/// executing thread owns all fields; `Cancel()` is the one cross-thread
/// entry point (an atomic flag any thread may set). The deadline must be
/// set before execution starts. NTA checks `CheckRunnable()` between
/// rounds, so expiry or cancellation aborts within one round with
/// DeadlineExceeded / Cancelled.
class QueryContext {
 public:
  using Clock = std::chrono::steady_clock;

  /// Where the query is in the service's scheduling lifecycle. Purely
  /// observational (exported via `/v1/stats`); the authoritative scheduling
  /// state lives under QueryService::mu_. Engine-direct executions stay
  /// kQueued/kRunning trivially.
  enum class Lifecycle : int {
    kQueued = 0,   // admitted, waiting for a worker
    kRunning = 1,  // a worker is stepping it
    kParked = 2,   // preempted mid-flight, waiting to be resumed
    kFinished = 3, // outcome decided (completed, failed, cancelled, expired)
  };

  QueryContext() = default;
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// Client session this query belongs to (admission fairness + QoS
  /// weighting happen per session).
  uint64_t session_id = 0;
  /// QoS class driving dispatch priority and batch linger behaviour.
  QosClass qos = QosClass::kBatch;
  /// Activation cache consulted before inference (§4.7.3); engine default
  /// is filled in by DeepEverest when left null.
  IqaCache* iqa = nullptr;
  /// When set, inference routes through this shared cross-query batching
  /// scheduler instead of calling the engine directly, so co-scheduled
  /// queries fill each other's device batches (per-query stats stay exact
  /// either way — receipt metering).
  nn::BatchingInferenceScheduler* scheduler = nullptr;
  /// Invoked after each NTA round; return false to stop early with the
  /// current (θ-guaranteed) top-k.
  std::function<bool(const NtaProgress&)> on_progress;
  /// Exact inference cost accumulated on behalf of this query across every
  /// engine/scheduler call it makes (index builds included).
  nn::InferenceReceipt receipt;
  /// Per-query trace the execution layers append spans to (admission/queue
  /// wait, dispatch, NTA rounds, ComputeLayer calls, serialization). Null —
  /// the default for engine-direct callers — makes every instrumentation
  /// site a no-op; the service attaches one per query at admission. Shared
  /// because the trace outlives the context in the recent-trace ring that
  /// backs `GET /v1/trace/<id>`.
  std::shared_ptr<Trace> trace;
  /// The trace's "respond" span: opened by the service as it resolves the
  /// query's future, closed by the front-end once it resumes on the result,
  /// so the thread handoff between the two is attributed too. -1 = none.
  int respond_span = -1;
  /// Dataset version (input count) this query's index was pinned at, filled
  /// in when the execution resolves its index. The answer covers exactly the
  /// prefix [0, pinned_dataset_version) even if ingest grows the dataset
  /// while the query runs.
  uint32_t pinned_dataset_version = 0;

  /// Deadline `seconds` from now; unset (the default) means no deadline.
  /// Values are clamped to [0, ~3 years]: a float→int64 cast of a huge
  /// nanosecond count would be undefined behaviour, and callers (the HTTP
  /// front-end) feed this from untrusted wire input. NaN clamps to 0
  /// (immediately due).
  void SetDeadlineAfter(double seconds) {
    double clamped = seconds;
    if (!(clamped > 0.0)) clamped = 0.0;
    if (clamped > 1e8) clamped = 1e8;
    deadline_ = Clock::now() + std::chrono::nanoseconds(static_cast<int64_t>(
                                   clamped * 1e9));
  }
  bool has_deadline() const { return deadline_ != Clock::time_point::max(); }
  Clock::time_point deadline() const { return deadline_; }
  bool DeadlineExpired() const {
    return has_deadline() && Clock::now() >= deadline_;
  }

  /// Cooperative cancellation: any thread may request it; the executing
  /// query aborts with Cancelled at its next between-rounds check.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Lifecycle transitions are published by whichever worker owns the query
  /// at the time (ownership handoffs are ordered by the service's mutex);
  /// readers (stats snapshots) take a lock-free acquire snapshot that may
  /// trail the authoritative state by one transition.
  void set_lifecycle(Lifecycle state) {
    lifecycle_.store(state, std::memory_order_release);
  }
  Lifecycle lifecycle() const {
    return lifecycle_.load(std::memory_order_acquire);
  }

  /// OK while the query may keep running; Cancelled / DeadlineExceeded
  /// otherwise. This is the check NTA runs between rounds.
  Status CheckRunnable() const {
    if (cancelled()) return Status::Cancelled("query cancelled");
    if (DeadlineExpired()) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }

 private:
  Clock::time_point deadline_ = Clock::time_point::max();
  std::atomic<bool> cancelled_{false};
  std::atomic<Lifecycle> lifecycle_{Lifecycle::kQueued};
};

}  // namespace core
}  // namespace deepeverest

#endif  // DEEPEVEREST_CORE_QUERY_CONTEXT_H_
