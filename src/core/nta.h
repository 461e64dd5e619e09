#ifndef DEEPEVEREST_CORE_NTA_H_
#define DEEPEVEREST_CORE_NTA_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "core/distance.h"
#include "core/iqa_cache.h"
#include "core/npi.h"
#include "core/query.h"
#include "core/query_context.h"
#include "core/query_spec.h"
#include "nn/inference.h"

namespace deepeverest {
namespace core {

/// \brief Options controlling one NTA execution: the query *parameters*.
///
/// Per-query execution plumbing (QoS class, deadline, cancellation, receipt
/// accumulation, progress sink, IQA cache, batch scheduler) lives in
/// QueryContext, which is threaded through every layer separately.
struct NtaOptions {
  int k = 20;
  /// Monotonic aggregation function; nullptr selects l2 (paper default).
  DistancePtr dist;
  /// θ-approximation factor in (0, 1]; 1.0 returns the exact answer. For
  /// most-similar queries termination relaxes to max(top) <= t/θ (eq. 6);
  /// for highest queries, kth >= θ*T.
  double theta = 1.0;
  /// Use the Maximum Activation Index fast path when the index has one.
  bool use_mai = true;
  /// Tie-complete termination: stop only once the k-th value beats the
  /// threshold *strictly*, so every input tied with the k-th value gets
  /// evaluated and the result matches a full activation scan bit-for-bit
  /// (canonical (value, input id) order). Fixes the §4.6 cold-start
  /// nondeterminism where NTA and the fresh-scan path could legitimately
  /// pick different ids on exact value ties at the k-th boundary. May
  /// evaluate more inputs than strictly necessary for *a* valid top-k.
  /// The canonical-result guarantee applies to exact queries (theta == 1);
  /// with theta < 1 the strict comparison still applies but the result is
  /// only a θ-approximation and remains dependent on how far the run got.
  bool tie_complete = false;
};

/// Checks `group` against the model: non-empty, an existing layer, every
/// neuron inside that layer. QueryExecution runs it before the fresh-scan
/// path reads activation rows unchecked, and NTA adds its index-shape checks.
Status ValidateNeuronGroup(const nn::Model& model, const NeuronGroup& group);

/// Runs `ids` to `layer` through the context's batch scheduler, or
/// `inference` when it has none, metering the cost into ctx->receipt under
/// one `compute_layer` trace span. NTA rounds and derived-group resolution
/// (DeepEverest::MaximallyActivatedNeurons) both infer through it.
Status ComputeLayerInContext(nn::InferenceEngine* inference,
                             const std::vector<uint32_t>& ids, int layer,
                             QueryContext* ctx,
                             std::vector<std::vector<float>>* rows);

class DeepEverest;
class NtaEngine;

/// \brief One in-flight query as a first-class, resumable object: the
/// whole-query phase machine (derived-group resolution → incremental index
/// ensure → fresh scan, or the NTA prologue and rounds) with all its state —
/// the resolved group, the pinned index, the candidate top-k set, the
/// threshold state, the per-neuron sorted-access cursors, and the
/// IQA/receipt bookkeeping — checkpointed between `Step()` calls.
///
/// DeepEverest::BeginSpec() creates one at derived-group resolution;
/// NtaEngine::Begin() creates one at the NTA phase, over its caller's index.
/// Each `Step()` runs exactly one unit of work: the resolution (at most one
/// inference pass), the index ensure (which may build the layer index and
/// answer by scanning the matrix the build computed), the most-similar
/// target prologue, or one NTA round. A caller may stop between Steps, hand
/// the object to another thread, and continue later. The final result — and
/// its receipt-metered `inputs_run` attribution over the *whole* execution,
/// resolution and index build included — is bit-identical to an
/// uninterrupted Run().
///
/// Ownership/threading: single-owner state, NOT internally synchronised. At
/// most one thread may call Step()/Run()/TakeResult() at a time; a handoff
/// between threads must be ordered by an external synchronisation point (the
/// QueryService parks executions in its mutex-guarded dispatch queue). The
/// QueryContext passed at Begin must outlive the execution; cancellation and
/// deadline are re-checked via that context at every Step, so an execution
/// whose deadline passed while it was parked aborts before doing any work.
class QueryExecution {
 public:
  ~QueryExecution();
  QueryExecution(const QueryExecution&) = delete;
  QueryExecution& operator=(const QueryExecution&) = delete;

  /// Runs one unit of work. A non-OK status (invalid group, Cancelled,
  /// DeadlineExceeded, inference failure) finishes the execution: `done()`
  /// becomes true and TakeResult() returns the same status. Calling Step()
  /// once done is a no-op.
  Status Step();

  /// True once the query finished — answer complete, early-terminated,
  /// stopped by the progress sink, or failed.
  bool done() const;

  /// Steps to completion and returns the final result.
  Result<TopKResult> Run();

  /// After done(): the final result (entries plus receipt-metered stats
  /// over the whole execution), or the terminal error. `wall_seconds` is
  /// the accumulated *active* stepping time — time spent parked between
  /// Step calls is not attributed to the query.
  Result<TopKResult> TakeResult();

 private:
  friend class DeepEverest;
  friend class NtaEngine;
  struct Impl;
  explicit QueryExecution(std::unique_ptr<Impl> impl);
  /// BeginSpec's execution of an already validated `spec`.
  static std::unique_ptr<QueryExecution> ForSpec(DeepEverest* system,
                                                 const QuerySpec& spec,
                                                 QueryContext* ctx);
  std::unique_ptr<Impl> impl_;
};

/// \brief The Neural Threshold Algorithm (paper section 4.4, Algorithm 1).
///
/// Executes top-k queries against one layer using that layer's LayerIndex,
/// running DNN inference only on the partitions of inputs that can still
/// affect the answer. Instance optimal in the number of inputs accessed
/// (Theorem 4.1).
///
/// The engine has ONE entry point: Begin() returns a resumable QueryExecution
/// that starts at the NTA phase and is stepped one round at a time (Run()
/// steps it to completion).
///
/// Begin takes the QueryContext carrying the query's execution plumbing
/// (QoS class, deadline, cancellation, receipt, progress sink, IQA cache,
/// batch scheduler). The context is checked between rounds, so an expired
/// deadline or a cancellation aborts within one round (DeadlineExceeded /
/// Cancelled).
class NtaEngine {
 public:
  /// Does not take ownership; both must outlive the engine AND any
  /// execution it begins.
  NtaEngine(nn::InferenceEngine* inference, const LayerIndex* index)
      : inference_(inference), index_(index) {}

  NtaEngine(const NtaEngine&) = delete;
  NtaEngine& operator=(const NtaEngine&) = delete;

  /// Begins a resumable query over the resolved `group`, with the target
  /// encoded as in QuerySpec: a kHighest query has no target (`target_id`
  /// -1, `target_acts` empty); a kMostSimilar query has exactly one of a
  /// dataset input `target_id` (excluded from the result set, as in the
  /// paper's worked example; its activations cost one inference pass in the
  /// first Step) or an arbitrary activation vector `target_acts`, one value
  /// per group neuron (e.g. an out-of-dataset probe). Highest queries
  /// require non-negative activations (true for the ReLU layers DeepEverest
  /// queries). `ctx` must be non-null and outlive the returned execution.
  Result<std::unique_ptr<QueryExecution>> Begin(
      const NeuronGroup& group, QuerySpec::Kind kind, int64_t target_id,
      const std::vector<float>& target_acts, const NtaOptions& options,
      QueryContext* ctx);

 private:
  nn::InferenceEngine* inference_;
  const LayerIndex* index_;
};

/// \brief Answers `spec` over a fully materialised activation matrix of its
/// layer: the §4.6 fresh-scan path and every baseline run it, differing only
/// in where the matrix comes from. `group` is the spec's resolved group; a
/// most-similar query by `target_id` reads the target's row from `matrix`
/// and excludes it from the result. Every neuron and the target are
/// range-checked against `matrix` before any row is read.
Result<TopKResult> ScanSpec(const storage::LayerActivationMatrix& matrix,
                            const NeuronGroup& group, const QuerySpec& spec);

/// \brief Scans a fully materialised activation matrix with unchecked
/// indexing (ScanSpec checks first). Results are sorted best-first.
TopKResult ScanMostSimilar(const storage::LayerActivationMatrix& matrix,
                           const std::vector<int64_t>& neurons,
                           const std::vector<float>& target_acts, int k,
                           const DistancePtr& dist, bool exclude_target,
                           uint32_t target_id);

TopKResult ScanHighest(const storage::LayerActivationMatrix& matrix,
                       const std::vector<int64_t>& neurons, int k,
                       const DistancePtr& dist);

}  // namespace core
}  // namespace deepeverest

#endif  // DEEPEVEREST_CORE_NTA_H_
