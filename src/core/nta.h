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
/// neuron inside that layer. DeepEverest runs it before the fresh-scan path
/// reads activation rows unchecked; NtaEngine adds its index-shape checks.
Status ValidateNeuronGroup(const nn::Model& model, const NeuronGroup& group);

class NtaEngine;

/// \brief One in-flight NTA query as a first-class, resumable object: the
/// candidate top-k set, the threshold state, the per-neuron sorted-access
/// cursors (MAI and partition), and the IQA/receipt bookkeeping all live
/// here instead of on a run-to-completion stack frame.
///
/// Created by NtaEngine::Begin{MostSimilarTo,MostSimilar,Highest}(). Each
/// `Step()` runs exactly one unit of work — the target-evaluation prologue
/// or one NTA round — and returns with all state checkpointed, so a caller
/// may stop between rounds, hand the object to another thread, and continue
/// later. Results are bit-identical to an uninterrupted run: the round
/// structure, threshold arithmetic, and tie-complete termination are
/// exactly those of the former run-to-completion loop.
///
/// Ownership/threading: the execution is NOT internally synchronised. It is
/// single-owner state — at most one thread may call Step()/Run()/
/// TakeResult() at a time, and a handoff between threads must be ordered by
/// an external synchronisation point (the QueryService hands executions off
/// through its mutex-guarded dispatch queue). The QueryContext passed at
/// Begin must outlive the execution; cancellation/deadline are re-checked
/// via that context at the start of every Step, so a resumed execution
/// whose deadline passed while it was parked aborts before doing any work.
class NtaExecution {
 public:
  ~NtaExecution();
  NtaExecution(const NtaExecution&) = delete;
  NtaExecution& operator=(const NtaExecution&) = delete;

  /// Runs one unit of work (at most one NTA round). A non-OK status
  /// (Cancelled, DeadlineExceeded, inference failure) finishes the
  /// execution: `done()` becomes true and TakeResult() returns the same
  /// status. Calling Step() once done is a no-op.
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
  friend class NtaEngine;
  struct Impl;
  explicit NtaExecution(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// \brief The Neural Threshold Algorithm (paper section 4.4, Algorithm 1).
///
/// Executes top-k queries against one layer using that layer's LayerIndex,
/// running DNN inference only on the partitions of inputs that can still
/// affect the answer. Instance optimal in the number of inputs accessed
/// (Theorem 4.1).
///
/// The engine has ONE execution mechanism: Begin*() returns a resumable
/// NtaExecution that is stepped one round at a time. The run-to-completion
/// entry points below are thin Begin+Run wrappers kept for component-level
/// callers; there is no separate non-resumable path.
///
/// All query entry points take an optional QueryContext carrying the
/// query's execution plumbing (QoS class, deadline, cancellation, receipt,
/// progress sink, IQA cache, batch scheduler). The context is checked
/// between rounds, so an expired deadline or a cancellation aborts within
/// one round (DeadlineExceeded / Cancelled). Passing nullptr runs with a
/// default context (no deadline, direct inference, no IQA).
class NtaEngine {
 public:
  /// Does not take ownership; both must outlive the engine AND any
  /// execution it begins.
  NtaEngine(nn::InferenceEngine* inference, const LayerIndex* index)
      : inference_(inference), index_(index) {}

  NtaEngine(const NtaEngine&) = delete;
  NtaEngine& operator=(const NtaEngine&) = delete;

  /// Begins a resumable top-k most-similar query against dataset input
  /// `target_id` (excluded from the result set, as in the paper's worked
  /// example; its activations cost one inference pass in the first Step).
  /// `ctx` must be non-null and outlive the returned execution.
  Result<std::unique_ptr<NtaExecution>> BeginMostSimilarTo(
      const NeuronGroup& group, uint32_t target_id, const NtaOptions& options,
      QueryContext* ctx);

  /// Begins a resumable most-similar query against an arbitrary target
  /// activation vector (one value per neuron in `group`), e.g. for
  /// out-of-dataset probes.
  Result<std::unique_ptr<NtaExecution>> BeginMostSimilar(
      const NeuronGroup& group, const std::vector<float>& target_acts,
      const NtaOptions& options, QueryContext* ctx);

  /// Begins a resumable top-k highest query: the k inputs with the largest
  /// dist-aggregated activations for `group`. Requires non-negative
  /// activations (true for the ReLU layers DeepEverest queries).
  Result<std::unique_ptr<NtaExecution>> BeginHighest(const NeuronGroup& group,
                                                     const NtaOptions& options,
                                                     QueryContext* ctx);

  /// Begin + Run conveniences (identical semantics and results).
  Result<TopKResult> MostSimilarTo(const NeuronGroup& group,
                                   uint32_t target_id,
                                   const NtaOptions& options,
                                   QueryContext* ctx = nullptr);
  Result<TopKResult> MostSimilar(const NeuronGroup& group,
                                 const std::vector<float>& target_acts,
                                 const NtaOptions& options,
                                 QueryContext* ctx = nullptr);
  Result<TopKResult> Highest(const NeuronGroup& group,
                             const NtaOptions& options,
                             QueryContext* ctx = nullptr);

 private:
  /// The one validate-and-construct path behind every Begin*(): a highest
  /// query has no target, a most-similar query exactly one of `target_id`
  /// and `target_acts`.
  Result<std::unique_ptr<NtaExecution>> Begin(
      const NeuronGroup& group, const NtaOptions& options, QueryContext* ctx,
      bool highest, const uint32_t* target_id,
      const std::vector<float>* target_acts);

  nn::InferenceEngine* inference_;
  const LayerIndex* index_;
};

/// \brief Reference brute-force executors used by tests and baselines: they
/// compute activations for every input and scan. These define the ground
/// truth NTA must match.
Result<TopKResult> BruteForceMostSimilar(nn::InferenceEngine* inference,
                                         const NeuronGroup& group,
                                         const std::vector<float>& target_acts,
                                         int k, const DistancePtr& dist,
                                         bool exclude_target,
                                         uint32_t target_id);

Result<TopKResult> BruteForceHighest(nn::InferenceEngine* inference,
                                     const NeuronGroup& group, int k,
                                     const DistancePtr& dist);

/// \brief Scans a fully materialised activation matrix (shared by the
/// PreprocessAll/caching baselines, which differ only in where the matrix
/// comes from). Results are sorted best-first.
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
