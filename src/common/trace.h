#ifndef DEEPEVEREST_COMMON_TRACE_H_
#define DEEPEVEREST_COMMON_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"

namespace deepeverest {

/// \brief One typed span attribute. Integer attributes stay integers end to
/// end (they are summed exactly by clients — e.g. per-round `inputs_run`
/// must add up to the query's receipt total bit-for-bit); doubles carry
/// thresholds, batch shares, and seconds.
struct TraceAttr {
  std::string key;
  bool is_int = true;
  int64_t int_value = 0;
  double double_value = 0.0;
};

/// \brief One timed interval inside a trace. Times are nanoseconds on the
/// trace's own monotonic clock (zero = trace creation), so spans need no
/// wall-clock and serialize compactly.
struct TraceSpan {
  std::string name;
  /// Index of the enclosing span in Trace::Snapshot().spans; -1 = root.
  int parent = -1;
  int64_t start_nanos = 0;
  /// -1 while the span is still open (Snapshot reports a provisional
  /// duration up to "now" for open spans and flags them).
  int64_t duration_nanos = -1;
  std::vector<TraceAttr> attrs;
};

/// \brief A lock-cheap per-query trace: a bounded span vector on one
/// monotonic clock.
///
/// Every service query gets one at admission; it rides the query's
/// QueryContext through QueryService → QueryExecution →
/// BatchingInferenceScheduler, so each layer appends spans without any
/// signature churn. Span nesting is implicit: StartSpan parents to the
/// innermost span still open, which matches the strictly LIFO way the
/// execution layers open and close their scopes (admission opens
/// query/queue_wait, the worker closes queue_wait and opens execute, NTA
/// nests rounds and ComputeLayer calls inside execute, the HTTP layer adds
/// serialize at the end).
///
/// Thread-safety: all methods are safe from any thread (one small mutex —
/// uncontended in practice, since at most one thread works on a query at a
/// time and handoffs are already synchronised by the service). The span
/// vector is bounded: once `max_spans` spans exist, further StartSpan calls
/// are dropped (counted in Snapshot().dropped_spans) instead of growing
/// without bound on adversarial queries.
class Trace {
 public:
  static constexpr size_t kDefaultMaxSpans = 256;

  /// Process-wide unique trace id (a simple atomic counter: ids are for
  /// correlating /v1/trace lookups and slow-query log lines, not security).
  static uint64_t NextId();

  explicit Trace(uint64_t id, size_t max_spans = kDefaultMaxSpans);

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  uint64_t id() const { return id_; }

  /// Opens a span parented to the innermost open span. Returns the span's
  /// index, or -1 when the trace is full (the drop is counted, and every
  /// later call on index -1 is a safe no-op).
  int StartSpan(const char* name);
  /// Closes `span`. No-op for -1 or an already-closed span.
  void EndSpan(int span);

  void AddInt(int span, const char* key, int64_t value);
  void AddDouble(int span, const char* key, double value);

  /// Closes every span still open (innermost first). Idempotent; called by
  /// the layer that owns the end of the query's life (the HTTP front-end
  /// after response serialization).
  void Finish();

  /// Nanoseconds since the trace was created.
  int64_t ElapsedNanos() const;

  struct Data {
    uint64_t id = 0;
    int64_t dropped_spans = 0;
    /// True when some span was still open at snapshot time (its duration is
    /// provisional).
    bool has_open_spans = false;
    std::vector<TraceSpan> spans;
  };
  /// A consistent copy of the trace; open spans get a provisional duration
  /// up to "now".
  Data Snapshot() const;

 private:
  using Clock = std::chrono::steady_clock;

  const uint64_t id_;
  const size_t max_spans_;
  const Clock::time_point t0_;

  mutable common::Mutex mu_;
  std::vector<TraceSpan> spans_ GUARDED_BY(mu_);
  /// Stack of open span indices.
  std::vector<int> open_ GUARDED_BY(mu_);
  int64_t dropped_ GUARDED_BY(mu_) = 0;
};

/// \brief RAII span: opens on construction, closes on destruction. Null
/// trace (engine-direct callers without tracing) makes every operation a
/// no-op, so instrumentation sites need no branching of their own.
class SpanScope {
 public:
  SpanScope(Trace* trace, const char* name)
      : trace_(trace), span_(trace != nullptr ? trace->StartSpan(name) : -1) {}
  ~SpanScope() {
    if (trace_ != nullptr) trace_->EndSpan(span_);
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void AddInt(const char* key, int64_t value) {
    if (trace_ != nullptr) trace_->AddInt(span_, key, value);
  }
  void AddDouble(const char* key, double value) {
    if (trace_ != nullptr) trace_->AddDouble(span_, key, value);
  }
  int index() const { return span_; }

 private:
  Trace* trace_;
  int span_;
};

/// \brief Fixed-size ring of recently finished traces, the backing store of
/// `GET /v1/trace/<id>`: the newest `capacity` traces survive, older ones
/// are dropped as the ring wraps. Thread-safe. Capacity 0 keeps nothing.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity);

  void Push(std::shared_ptr<Trace> trace);
  /// The trace with `id` if it is still in the ring; nullptr otherwise.
  std::shared_ptr<Trace> Find(uint64_t id) const;

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable common::Mutex mu_;
  std::vector<std::shared_ptr<Trace>> ring_ GUARDED_BY(mu_);
  size_t next_ GUARDED_BY(mu_) = 0;
};

}  // namespace deepeverest

#endif  // DEEPEVEREST_COMMON_TRACE_H_
