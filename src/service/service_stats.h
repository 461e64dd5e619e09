#ifndef DEEPEVEREST_SERVICE_SERVICE_STATS_H_
#define DEEPEVEREST_SERVICE_SERVICE_STATS_H_

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/qos.h"
#include "core/iqa_cache.h"
#include "nn/batch_scheduler.h"

namespace deepeverest {
namespace service {

/// \brief Lock-free latency histogram with geometric buckets.
///
/// 128 buckets spanning 1 µs .. ~10^4 s with ratio ~1.2 give percentile
/// estimates within ±10% — plenty for a p50/p99 dashboard — while Record()
/// is a single relaxed fetch_add, cheap enough for every query.
class LatencyHistogram {
 public:
  void Record(double seconds) {
    buckets_[BucketFor(seconds)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  int64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Approximate latency at quantile `q` in [0, 1]; 0 when empty.
  double PercentileSeconds(double q) const {
    const int64_t total = count();
    if (total <= 0) return 0.0;
    int64_t rank = static_cast<int64_t>(q * static_cast<double>(total - 1));
    for (int i = 0; i < kBuckets; ++i) {
      rank -= buckets_[i].load(std::memory_order_relaxed);
      if (rank < 0) return BucketMidSeconds(i);
    }
    return BucketMidSeconds(kBuckets - 1);
  }

  /// Folds `other` into this histogram (relaxed adds, safe against
  /// concurrent Record on either side). Used to aggregate per-worker or
  /// per-model histograms into one exposition series.
  void Merge(const LatencyHistogram& other) {
    for (int i = 0; i < kBuckets; ++i) {
      const int64_t n = other.buckets_[i].load(std::memory_order_relaxed);
      if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
    }
    count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  }

  static constexpr int num_buckets() { return kBuckets; }
  int64_t BucketCount(int idx) const {
    return buckets_[idx].load(std::memory_order_relaxed);
  }
  /// Exclusive upper edge of bucket `idx` — the `le` bound when the
  /// histogram is exported in Prometheus text format. The last bucket holds
  /// everything clamped from above, so its logical bound is +infinity.
  static double BucketUpperSeconds(int idx) {
    if (idx >= kBuckets - 1) {
      return std::numeric_limits<double>::infinity();
    }
    return kMinSeconds * std::exp(static_cast<double>(idx + 1) * kLogRatio);
  }
  /// Approximate sum of all recorded values (midpoint rule), for the
  /// Prometheus `_sum` series.
  double ApproxSumSeconds() const {
    double sum = 0.0;
    for (int i = 0; i < kBuckets; ++i) {
      const int64_t n = buckets_[i].load(std::memory_order_relaxed);
      if (n != 0) sum += static_cast<double>(n) * BucketMidSeconds(i);
    }
    return sum;
  }

 private:
  static constexpr int kBuckets = 128;
  static constexpr double kMinSeconds = 1e-6;
  // kBuckets geometric steps cover 10 decades: ratio = 10^(10/127).
  static constexpr double kLogRatio = 10.0 / 127.0 * 2.302585092994046;

  static int BucketFor(double seconds) {
    if (!(seconds > kMinSeconds)) return 0;
    const int idx = static_cast<int>(std::log(seconds / kMinSeconds) /
                                     kLogRatio);
    return idx >= kBuckets ? kBuckets - 1 : idx;
  }
  static double BucketMidSeconds(int idx) {
    return kMinSeconds * std::exp((static_cast<double>(idx) + 0.5) *
                                  kLogRatio);
  }

  std::array<std::atomic<int64_t>, kBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
};

/// \brief Per-QoS-class slice of the service counters; indexed by
/// QosIndex() in ServiceStats::per_class. Counter meanings match the
/// top-level fields (which are the sums across classes).
struct QosClassStats {
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t cancelled = 0;
  int64_t deadline_exceeded = 0;
  int64_t rejected_past_deadline = 0;

  // Admission-to-completion latency of this class's *executed* queries.
  double p50_latency_seconds = 0.0;
  double p90_latency_seconds = 0.0;
  double p99_latency_seconds = 0.0;
  /// Raw histogram bucket counts behind those percentiles
  /// (LatencyHistogram::num_buckets() entries; bucket i's upper edge is
  /// LatencyHistogram::BucketUpperSeconds(i)) — what /v1/metrics exports as
  /// the per-class latency histogram.
  std::vector<int64_t> latency_buckets;
  /// Midpoint-rule estimate of the summed latency (Prometheus `_sum`).
  double approx_latency_sum_seconds = 0.0;

  /// Mean occupancy of the device batches this class's inference rode in
  /// (see BatchSchedulerClassStats::AverageFill); 0 when batching is off.
  double batch_fill = 0.0;
};

/// \brief Point-in-time snapshot of a QueryService, cheap enough to poll.
struct ServiceStats {
  // Admission.
  int64_t submitted = 0;
  int64_t rejected_queue_full = 0;
  int64_t rejected_session_limit = 0;

  // Completion. Every submitted (admitted) query ends in exactly one of
  // these four buckets:
  //  - `completed`: executed and returned OK.
  //  - `failed`: executed but returned a non-OK status other than
  //    DeadlineExceeded/Cancelled — a genuine execution error (bad layer,
  //    I/O failure, ...).
  //  - `cancelled`: cancelled rather than answered — queries still queued
  //    at Shutdown(), and queries whose `Submission::context->Cancel()`
  //    was called (directly, or by the HTTP server when a streaming
  //    client disconnects): a queued one fails at dispatch without
  //    running, a running one aborts cooperatively between NTA rounds.
  //  - `deadline_exceeded` + `rejected_past_deadline`: the query's deadline
  //    expired. `rejected_past_deadline` counts queries whose deadline
  //    passed while still queued — they are rejected at dispatch without
  //    running any inference (no worker time is spent on work nobody is
  //    waiting for). `deadline_exceeded` counts queries that started
  //    executing and aborted cooperatively between NTA rounds.
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t cancelled = 0;
  int64_t deadline_exceeded = 0;
  int64_t rejected_past_deadline = 0;

  // Live state.
  size_t queue_depth = 0;
  size_t inflight = 0;
  size_t active_sessions = 0;  // sessions with queued work
  /// Queries preempted mid-flight, currently waiting to be resumed. Parked
  /// queries sit in the dispatch queue but are NOT part of `queue_depth`
  /// (they already started) nor `inflight` (no worker is stepping them).
  size_t parked = 0;

  // Preemptive execution. A bulk/best-effort query may be parked between
  // NTA rounds when interactive work arrives and resumed later on any
  // worker; results are unaffected (bit-identical to an uninterrupted run).
  int64_t parked_total = 0;   // park transitions since startup
  int64_t resumed_total = 0;  // resume transitions since startup
  /// Park-and-switch events where a worker handed itself directly to an
  /// interactive query (currently always equal to parked_total; kept
  /// separate so future park reasons don't overload the meaning).
  int64_t preemptions = 0;

  // Latency (admission-to-completion), approximate percentiles.
  double p50_latency_seconds = 0.0;
  double p90_latency_seconds = 0.0;
  double p99_latency_seconds = 0.0;
  /// Raw overall histogram buckets (see QosClassStats::latency_buckets).
  std::vector<int64_t> latency_buckets;
  double approx_latency_sum_seconds = 0.0;

  /// Per-QoS-class counter slices: every query records under its declared
  /// class.
  std::array<QosClassStats, kNumQosClasses> per_class{};

  // Worker pool.
  int num_workers = 0;
  double uptime_seconds = 0.0;
  double worker_busy_seconds = 0.0;  // summed across workers
  /// busy / (uptime * workers), in [0, 1].
  double worker_utilization = 0.0;

  /// IQA cache counters and occupancy; absent when the engine runs without
  /// IQA.
  std::optional<core::IqaCache::Stats> iqa;

  /// Cross-query inference batching. When enabled, concurrent queries'
  /// ComputeLayer calls coalesce into shared device batches; `batching`
  /// reports how full those batches ran (see
  /// BatchSchedulerStats::AverageFill) and how often batches were shared
  /// across queries. All zeros when batching is off.
  bool batching_enabled = false;
  int batch_size = 0;  // device batch capacity the scheduler fills to
  nn::BatchSchedulerStats batching;
};

}  // namespace service
}  // namespace deepeverest

#endif  // DEEPEVEREST_SERVICE_SERVICE_STATS_H_
