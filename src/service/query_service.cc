#include "service/query_service.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/logging.h"

namespace deepeverest {
namespace service {

namespace {

// The service creates every trace itself, so the first two span indices are
// invariants: admission opens the root ("query", index 0) and the
// queue-wait span (index 1); the worker that dispatches the query closes
// span 1.
constexpr int kQueueWaitSpan = 1;

/// One structured key=value line for a query that blew the slow-query
/// threshold: identity, outcome, where the time went (top spans by
/// duration). Emitted through the logging sink so tests and operators can
/// capture it.
void EmitSlowQueryLog(const PendingQuery& pending, const Status& status,
                      double latency_seconds, double queue_seconds) {
  const Trace::Data data = pending.ctx->trace->Snapshot();
  // Top spans by duration, root excluded (its duration IS the latency).
  std::vector<const TraceSpan*> spans;
  spans.reserve(data.spans.size());
  for (size_t i = 1; i < data.spans.size(); ++i) {
    spans.push_back(&data.spans[i]);
  }
  std::sort(spans.begin(), spans.end(),
            [](const TraceSpan* a, const TraceSpan* b) {
              return a->duration_nanos > b->duration_nanos;
            });
  std::ostringstream line;
  line << "slow_query trace_id=" << data.id
       << " session=" << pending.query.session_id
       << " qos=" << QosClassName(pending.query.qos)
       << " status=" << StatusCodeToString(status.code())
       << " latency_s=" << latency_seconds
       << " queue_s=" << queue_seconds << " spans=\"";
  const size_t top = std::min<size_t>(3, spans.size());
  for (size_t i = 0; i < top; ++i) {
    if (i > 0) line << ",";
    line << spans[i]->name << ":"
         << static_cast<double>(spans[i]->duration_nanos) * 1e-9 << "s";
  }
  line << "\"";
  DE_LOG_WARNING << line.str();
}

/// Reads one set of completion counters into `out`: the service totals
/// (ServiceStats) or one QoS class's slice (QosClassStats), which name
/// these fields alike.
template <typename Counters, typename Out>
void ReadCompletions(const Counters& in, Out* out) {
  out->submitted = in.submitted.load(std::memory_order_relaxed);
  out->completed = in.completed.load(std::memory_order_relaxed);
  out->failed = in.failed.load(std::memory_order_relaxed);
  out->cancelled = in.cancelled.load(std::memory_order_relaxed);
  out->deadline_exceeded = in.deadline_exceeded.load(std::memory_order_relaxed);
  out->rejected_past_deadline =
      in.rejected_past_deadline.load(std::memory_order_relaxed);
  out->p50_latency_seconds = in.latency.PercentileSeconds(0.50);
  out->p90_latency_seconds = in.latency.PercentileSeconds(0.90);
  out->p99_latency_seconds = in.latency.PercentileSeconds(0.99);
}

}  // namespace

void QosQueue::Enqueue(PendingQuery pending) {
  Lane& lane = lanes_[QosIndex(pending.query.qos)];
  const uint64_t session = pending.query.session_id;
  ++session_depth_[session];
  ++size_;
  if (pending.ctx->has_deadline()) {
    lane.edf.emplace(pending.ctx->deadline(), std::move(pending));
    return;
  }
  lane.weights[session] = std::max(1, pending.query.weight);
  auto& queue = lane.sessions[session];
  if (queue.empty()) lane.rotor.push_back(session);
  queue.push_back(std::move(pending));
}

PendingQuery QosQueue::PopNext() {
  for (Lane& lane : lanes_) {
    if (lane.empty()) continue;
    PendingQuery pending = PopFromLane(&lane);
    auto depth = session_depth_.find(pending.query.session_id);
    DE_CHECK(depth != session_depth_.end());
    if (--depth->second == 0) session_depth_.erase(depth);
    --size_;
    return pending;
  }
  DE_CHECK(false) << "PopNext on an empty admission queue";
  return PendingQuery{};
}

size_t QosQueue::QueuedForSession(uint64_t session) const {
  auto it = session_depth_.find(session);
  return it == session_depth_.end() ? 0 : it->second;
}

std::vector<PendingQuery> QosQueue::DrainAll() {
  std::vector<PendingQuery> all;
  all.reserve(size_);
  for (Lane& lane : lanes_) {
    for (auto& [deadline, pending] : lane.edf) {
      all.push_back(std::move(pending));
    }
    lane.edf.clear();
    for (auto& [session, queue] : lane.sessions) {
      for (PendingQuery& pending : queue) all.push_back(std::move(pending));
    }
    lane.sessions.clear();
    lane.rotor.clear();
    lane.weights.clear();
    lane.credits = 0;
  }
  session_depth_.clear();
  size_ = 0;
  return all;
}

PendingQuery QosQueue::PopFromLane(Lane* lane) {
  if (!lane->edf.empty()) {
    auto it = lane->edf.begin();
    PendingQuery pending = std::move(it->second);
    lane->edf.erase(it);
    return pending;
  }
  const uint64_t session = lane->rotor.front();
  if (lane->credits == 0) lane->credits = lane->weights[session];
  auto it = lane->sessions.find(session);
  DE_CHECK(it != lane->sessions.end() && !it->second.empty());
  PendingQuery pending = std::move(it->second.front());
  it->second.pop_front();
  --lane->credits;
  if (it->second.empty()) {
    lane->sessions.erase(it);
    lane->weights.erase(session);
    lane->rotor.pop_front();
    lane->credits = 0;
  } else if (lane->credits == 0) {
    lane->rotor.pop_front();
    lane->rotor.push_back(session);
  }
  return pending;
}

Result<std::unique_ptr<QueryService>> QueryService::Create(
    core::DeepEverest* engine, const QueryServiceOptions& options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine is required");
  }
  if (options.num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  if (options.max_queue_depth < 1) {
    return Status::InvalidArgument("max_queue_depth must be >= 1");
  }
  if (!std::isfinite(options.batch_linger_seconds) ||
      options.batch_linger_seconds < 0.0) {
    return Status::InvalidArgument(
        "batch_linger_seconds must be finite and >= 0");
  }
  return std::unique_ptr<QueryService>(new QueryService(engine, options));
}

QueryService::QueryService(core::DeepEverest* engine,
                           const QueryServiceOptions& options)
    : engine_(engine),
      options_(options),
      trace_ring_(options.trace_ring_capacity) {
  // With a single worker at most one query is ever in flight, so batches
  // could never be shared — skip the scheduler rather than pay its linger
  // window on every partial round. Otherwise each worker runs its own
  // inference calls through the scheduler, one stream per worker, so the
  // streams never make a worker wait for another's engine call.
  if (options_.enable_cross_query_batching && options_.num_workers > 1) {
    nn::BatchSchedulerOptions scheduler_options;
    scheduler_options.linger_seconds = options_.batch_linger_seconds;
    scheduler_options.num_dispatchers = options_.num_workers;
    scheduler_ = std::make_unique<nn::BatchingInferenceScheduler>(
        engine_->inference(), scheduler_options);
  }
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

Result<std::future<Result<core::TopKResult>>> QueryService::Submit(
    core::QuerySpec spec) {
  DE_ASSIGN_OR_RETURN(Submission submission,
                      SubmitWithControl(std::move(spec)));
  return std::move(submission.result);
}

Result<Submission> QueryService::SubmitWithControl(core::QuerySpec spec) {
  // The one validation choke point every entry point shares (QL parsing
  // and the wire decoder already ran it; programmatic callers get the
  // identical errors here).
  DE_RETURN_NOT_OK(core::ValidateSpec(spec));
  const int class_index = QosIndex(spec.qos);

  PendingQuery pending;
  pending.query = std::move(spec);
  pending.ctx = std::make_shared<core::QueryContext>();
  pending.ctx->session_id = pending.query.session_id;
  pending.ctx->qos = pending.query.qos;
  pending.ctx->scheduler = scheduler_.get();
  // The sink moves into the context (its home for the execution); the
  // caller keeps control through the Submission's context handle instead.
  pending.ctx->on_progress = std::move(pending.query.on_progress);
  pending.query.on_progress = nullptr;
  // Every query is traced from admission on (see
  // QueryServiceOptions::trace_ring_capacity). The root span stays open
  // until the layer that finishes the query's life calls Trace::Finish()
  // — the HTTP front-end after serialization, or the ring push below for
  // engine-level callers that never look at the trace.
  pending.ctx->trace = std::make_shared<Trace>(Trace::NextId());
  const int root = pending.ctx->trace->StartSpan("query");
  pending.ctx->trace->AddInt(root, "session", static_cast<int64_t>(
                                                  pending.query.session_id));
  pending.ctx->trace->AddInt(root, "qos",
                             static_cast<int64_t>(QosIndex(pending.query.qos)));
  pending.ctx->trace->StartSpan("queue_wait");
  Submission submission;
  submission.context = pending.ctx;
  submission.result = pending.promise.get_future();

  {
    common::MutexLock lock(&mu_);
    if (stopping_) {
      return Status::FailedPrecondition("query service is shutting down");
    }
    if (queue_.size() >= options_.max_queue_depth) {
      rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "admission queue full (" + std::to_string(queue_.size()) +
          " queued)");
    }
    if (options_.max_queued_per_session > 0 &&
        queue_.QueuedForSession(pending.query.session_id) >=
            options_.max_queued_per_session) {
      rejected_session_limit_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "session " + std::to_string(pending.query.session_id) +
          " is at its queued-query limit");
    }
    // The deadline clock starts at admission: queue wait counts against
    // it. deadline_ms == 0 means "already due": one nanosecond (the
    // smallest positive deadline) is guaranteed to have passed by the time
    // a worker looks at the queue, so the query is rejected at dispatch
    // without running any inference.
    if (pending.query.deadline_ms >= 0.0) {
      pending.ctx->SetDeadlineAfter(
          std::max(pending.query.deadline_ms * 1e-3, 1e-9));
    }
    pending.wait.Reset();
    const bool interactive =
        pending.query.qos == QosClass::kInteractive;
    queue_.Enqueue(std::move(pending));
    // The preemption hint: workers poll this between NTA rounds. Written
    // only with mu_ held (here and in PopLocked), so it can never drift
    // from the queue's actual interactive backlog.
    if (interactive) {
      interactive_waiting_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  totals_.submitted.fetch_add(1, std::memory_order_relaxed);
  per_class_[class_index].submitted.fetch_add(1, std::memory_order_relaxed);
  work_cv_.NotifyOne();
  return submission;
}

Result<core::TopKResult> QueryService::Execute(core::QuerySpec spec) {
  DE_ASSIGN_OR_RETURN(std::future<Result<core::TopKResult>> future,
                      Submit(std::move(spec)));
  return future.get();
}

void QueryService::CountOutcome(const Result<core::TopKResult>& result,
                                QosClass qos, bool executed) {
  CompletionCounters* const counters[2] = {&totals_,
                                           &per_class_[QosIndex(qos)]};
  for (CompletionCounters* c : counters) {
    if (result.ok()) {
      c->completed.fetch_add(1, std::memory_order_relaxed);
    } else if (result.status().IsDeadlineExceeded()) {
      // Expired while queued (never ran) vs. aborted mid-execution.
      (executed ? c->deadline_exceeded : c->rejected_past_deadline)
          .fetch_add(1, std::memory_order_relaxed);
    } else if (result.status().IsCancelled()) {
      c->cancelled.fetch_add(1, std::memory_order_relaxed);
    } else {
      c->failed.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

PendingQuery QueryService::PopLocked() {
  PendingQuery pending = queue_.PopNext();
  if (pending.query.qos == QosClass::kInteractive) {
    interactive_waiting_.fetch_add(-1, std::memory_order_relaxed);
  }
  if (pending.execution != nullptr) {
    // A parked query coming back: the execution object rides along, so
    // this (possibly different) worker continues exactly where the parking
    // worker stopped.
    --parked_;
    resumed_total_.fetch_add(1, std::memory_order_relaxed);
  }
  return pending;
}

void QueryService::WorkerLoop() {
  for (;;) {
    PendingQuery pending;
    {
      common::MutexLock lock(&mu_);
      // Explicit wait loop (not a predicate lambda) so the thread-safety
      // analysis sees the guarded reads happen with mu_ held.
      while (!stopping_ && queue_.size() == 0) work_cv_.Wait(&mu_);
      if (queue_.size() == 0) return;  // stopping, queue drained/cancelled
      pending = PopLocked();
      ++inflight_;
    }

    // ProcessPending returns true when it parked the query and swapped an
    // interactive one into `pending` — keep going until the worker's query
    // actually finishes.
    while (ProcessPending(&pending)) {
    }

    {
      common::MutexLock lock(&mu_);
      --inflight_;
      // Parked queries keep queue_.size() > 0, so Drain() correctly
      // keeps waiting until they are resumed and finished.
      if (queue_.size() == 0 && inflight_ == 0) idle_cv_.NotifyAll();
    }
  }
}

bool QueryService::ProcessPending(PendingQuery* pending) {
  const bool resumed = pending->execution != nullptr;
  const QosClass qos = pending->query.qos;
  Trace* const trace = pending->ctx->trace.get();
  if (resumed) {
    if (trace != nullptr && pending->parked_span >= 0) {
      trace->EndSpan(pending->parked_span);
    }
    pending->parked_span = -1;
  } else {
    pending->queue_seconds = pending->wait.ElapsedSeconds();
    if (trace != nullptr) trace->EndSpan(kQueueWaitSpan);
  }

  // Re-validate after every lock handoff: cancellation or the deadline may
  // have fired while the query sat queued (never ran) or parked (ran some
  // rounds already).
  if (pending->ctx->cancelled()) {
    CompletePending(pending,
                    Status::Cancelled(resumed ? "cancelled while parked"
                                              : "cancelled while queued"),
                    /*executed=*/resumed);
    return false;
  }
  if (pending->ctx->DeadlineExpired()) {
    // A fresh query whose deadline passed while queued is rejected at
    // dispatch (rejected_past_deadline — no inference ran). A parked one
    // DID execute rounds, so it counts as deadline_exceeded; either way the
    // worker slot is not burned stepping a query nobody is waiting for.
    CompletePending(
        pending,
        Status::DeadlineExceeded(
            resumed ? "deadline expired while parked"
                    : "deadline expired after " +
                          std::to_string(pending->queue_seconds) +
                          "s in the admission queue"),
        /*executed=*/resumed);
    return false;
  }

  pending->ctx->set_lifecycle(core::QueryContext::Lifecycle::kRunning);
  Stopwatch episode;
  if (!resumed) {
    if (trace != nullptr) {
      pending->execute_span = trace->StartSpan("execute");
    }
    Result<std::unique_ptr<core::QueryExecution>> begun =
        engine_->BeginSpec(pending->query, pending->ctx.get());
    if (!begun.ok()) {
      const double episode_seconds = episode.ElapsedSeconds();
      pending->exec_seconds += episode_seconds;
      busy_nanos_.fetch_add(static_cast<int64_t>(episode_seconds * 1e9),
                            std::memory_order_relaxed);
      CompletePending(pending, begun.status(), /*executed=*/true);
      return false;
    }
    pending->execution = std::move(begun).value();
  }

  core::QueryExecution* const execution = pending->execution.get();
  const bool preemptible =
      options_.enable_preemption && qos != QosClass::kInteractive;
  while (!execution->done()) {
    // Step errors (including between-rounds deadline/cancellation aborts)
    // surface through done() + TakeResult(), so the loop needs no separate
    // error path.
    const Status step = execution->Step();
    static_cast<void>(step);
    if (execution->done()) break;
    if (preemptible &&
        interactive_waiting_.load(std::memory_order_relaxed) > 0) {
      if (TryParkAndSwitch(pending, episode.ElapsedSeconds())) return true;
      // Stale hint (or stopping): nothing was parked or charged — the
      // episode stopwatch keeps running and the loop keeps stepping.
    }
  }
  const double episode_seconds = episode.ElapsedSeconds();
  pending->exec_seconds += episode_seconds;
  busy_nanos_.fetch_add(static_cast<int64_t>(episode_seconds * 1e9),
                        std::memory_order_relaxed);
  CompletePending(pending, execution->TakeResult(), /*executed=*/true);
  return false;
}

bool QueryService::TryParkAndSwitch(PendingQuery* pending,
                                    double episode_seconds) {
  common::MutexLock lock(&mu_);
  // The hint was a relaxed read; re-validate against the authoritative
  // state now that mu_ is held.
  if (stopping_) return false;
  if (interactive_waiting_.load(std::memory_order_relaxed) <= 0) return false;

  pending->exec_seconds += episode_seconds;
  busy_nanos_.fetch_add(static_cast<int64_t>(episode_seconds * 1e9),
                        std::memory_order_relaxed);
  Trace* const trace = pending->ctx->trace.get();
  if (trace != nullptr) pending->parked_span = trace->StartSpan("parked");
  pending->ctx->set_lifecycle(core::QueryContext::Lifecycle::kParked);
  ++parked_;
  parked_total_.fetch_add(1, std::memory_order_relaxed);
  queue_.Enqueue(std::move(*pending));
  // Enqueue + pop under the same hold: the queue's net size is unchanged
  // (no wakeup needed, none lost), and because the interactive counter is
  // positive under this same lock and the QosQueue serves strict class
  // priority, this pop is guaranteed to yield an interactive query — never
  // the non-interactive one just parked.
  *pending = PopLocked();
  return true;
}

void QueryService::CompletePending(PendingQuery* pending,
                                   Result<core::TopKResult> result,
                                   bool executed) {
  Trace* const trace = pending->ctx->trace.get();
  // Destroy the execution first: for queries abandoned mid-flight
  // (cancelled/expired while parked) its destructor closes the still-open
  // "nta" span, which must happen before the trace is pushed.
  pending->execution.reset();
  if (trace != nullptr && pending->execute_span >= 0) {
    trace->EndSpan(pending->execute_span);
    pending->execute_span = -1;
  }
  pending->ctx->set_lifecycle(core::QueryContext::Lifecycle::kFinished);
  if (result.ok()) {
    result.value().stats.queue_seconds = pending->queue_seconds;
  }
  const QosClass qos = pending->query.qos;
  CountOutcome(result, qos, executed);
  // Admission-to-completion latency, parked gaps included — what a waiting
  // client actually experienced. (Worker busy time is charged per episode
  // in ProcessPending/TryParkAndSwitch, never here.)
  const double latency = pending->wait.ElapsedSeconds();
  if (executed) {
    totals_.latency.Record(latency);
    per_class_[QosIndex(qos)].latency.Record(latency);
  }
  if (trace != nullptr) {
    if (options_.slow_query_seconds > 0.0 &&
        latency >= options_.slow_query_seconds) {
      EmitSlowQueryLog(*pending, result.ok() ? Status::OK() : result.status(),
                       latency, pending->queue_seconds);
    }
    // Into the ring before the future resolves, so a client can fetch
    // /v1/trace/<id> the moment its response arrives. The serialization
    // span the HTTP layer adds afterwards still lands in this same trace
    // object (the ring holds shared_ptrs).
    trace_ring_.Push(pending->ctx->trace);
    pending->ctx->respond_span = trace->StartSpan("respond");
  }
  pending->promise.set_value(std::move(result));
}

void QueryService::Drain() {
  common::MutexLock lock(&mu_);
  while (queue_.size() != 0 || inflight_ != 0) idle_cv_.Wait(&mu_);
}

void QueryService::Shutdown() {
  {
    common::MutexLock lock(&mu_);
    if (stopping_) {
      // Already shut down (or shutting down from the destructor after an
      // explicit Shutdown()).
    } else {
      stopping_ = true;
      // Fail queries that never started — and parked ones, which started
      // but will never be resumed; their futures resolve immediately.
      const Result<core::TopKResult> cancelled =
          Result<core::TopKResult>(Status::Cancelled("query service shut "
                                                     "down"));
      for (PendingQuery& pending : queue_.DrainAll()) {
        pending.execution.reset();  // closes any open NTA trace span
        pending.ctx->set_lifecycle(core::QueryContext::Lifecycle::kFinished);
        pending.promise.set_value(cancelled);
        CountOutcome(cancelled, pending.query.qos, /*executed=*/false);
      }
      parked_ = 0;
      interactive_waiting_.store(0, std::memory_order_relaxed);
      idle_cv_.NotifyAll();
    }
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

ServiceStats QueryService::Snapshot() const {
  ServiceStats stats;
  ReadCompletions(totals_, &stats);
  stats.rejected_queue_full =
      rejected_queue_full_.load(std::memory_order_relaxed);
  stats.rejected_session_limit =
      rejected_session_limit_.load(std::memory_order_relaxed);
  {
    common::MutexLock lock(&mu_);
    // Parked queries occupy dispatch-queue slots (max_queue_depth counts
    // them) but report separately: queue_depth is queries that have not
    // started yet.
    stats.queue_depth = queue_.size() - parked_;
    stats.inflight = inflight_;
    stats.active_sessions = queue_.ActiveSessions();
    stats.parked = parked_;
  }
  stats.parked_total = parked_total_.load(std::memory_order_relaxed);
  stats.resumed_total = resumed_total_.load(std::memory_order_relaxed);
  stats.preemptions = stats.parked_total;
  stats.num_workers = options_.num_workers;
  stats.uptime_seconds = uptime_.ElapsedSeconds();
  stats.worker_busy_seconds =
      static_cast<double>(busy_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  if (stats.uptime_seconds > 0.0 && stats.num_workers > 0) {
    stats.worker_utilization =
        stats.worker_busy_seconds /
        (stats.uptime_seconds * static_cast<double>(stats.num_workers));
    if (stats.worker_utilization > 1.0) stats.worker_utilization = 1.0;
  }
  if (engine_->iqa_cache() != nullptr) {
    stats.iqa = engine_->iqa_cache()->stats();
  }
  if (scheduler_ != nullptr) {
    stats.batching_enabled = true;
    stats.batch_size = scheduler_->batch_size();
    stats.batching = scheduler_->stats();
  }
  for (int c = 0; c < kNumQosClasses; ++c) {
    QosClassStats& out = stats.per_class[static_cast<size_t>(c)];
    const CompletionCounters& in = per_class_[static_cast<size_t>(c)];
    ReadCompletions(in, &out);
    for (int i = 0; i < LatencyHistogram::num_buckets(); ++i) {
      out.latency_buckets.push_back(in.latency.BucketCount(i));
    }
    out.approx_latency_sum_seconds = in.latency.ApproxSumSeconds();
    if (stats.batching_enabled) {
      out.batch_fill = stats.batching.per_class[static_cast<size_t>(c)]
                           .AverageFill(stats.batch_size);
    }
  }
  return stats;
}

}  // namespace service
}  // namespace deepeverest
