#ifndef DEEPEVEREST_CORE_DEEPEVEREST_H_
#define DEEPEVEREST_CORE_DEEPEVEREST_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/config.h"
#include "core/index_manager.h"
#include "core/iqa_cache.h"
#include "core/nta.h"
#include "core/query.h"
#include "core/query_engine.h"
#include "core/query_spec.h"
#include "data/dataset.h"
#include "nn/model.h"
#include "storage/file_store.h"

namespace deepeverest {
namespace core {

/// \brief Top-level DeepEverest options.
struct DeepEverestOptions {
  /// Storage budget for all indexes, as a fraction of full materialisation
  /// (the paper's default experiments use 20%).
  double storage_budget_fraction = 0.2;

  /// Throughput-optimal inference batch size for this model/hardware.
  int batch_size = 64;

  /// Manual overrides for the automatic configuration selection (§4.7.2);
  /// used by the ablation experiments. Leave at the sentinels to let the
  /// selector decide.
  int num_partitions_override = 0;   // 0 = automatic
  double mai_ratio_override = -1.0;  // < 0 = automatic

  /// Inter-Query Acceleration (§4.7.3): in-memory activation cache shared
  /// across queries.
  bool enable_iqa = false;
  uint64_t iqa_capacity_bytes = 1ull << 30;  // paper uses a 1 GB budget
};

/// \brief The DeepEverest system: declarative top-k queries over DNN
/// activations, accelerated by NPI + MAI + NTA with incremental indexing.
///
/// Typical use:
/// \code
///   auto store = storage::FileStore::Open(dir).value();
///   auto de = DeepEverest::Create(model.get(), &dataset, &store, {});
///   NeuronGroup g{.layer = 7, .neurons = {12, 55, 203}};
///   auto top = (*de)->ExecuteSpec(MostSimilarQuery(/*target_id=*/42, g,
///                                                  /*k=*/20));
/// \endcode
///
/// Indexes build on first use (§4.6) and every build commits the model's
/// persist/ snapshot in `store`, the one durable index format; a later
/// engine over the same store loads the committed segments instead of
/// rebuilding.
///
/// The system has ONE execution mechanism: every query is a core::QuerySpec
/// run through the resumable QueryExecution phase machine (BeginSpec), the
/// same object NtaEngine::Begin starts at its NTA phase; ExecuteSpec, the
/// QueryEngine entry point it shares with the baselines, runs it to
/// completion. There is no separate non-resumable path and no entry point
/// that bypasses ValidateSpec or QueryContext.
class DeepEverest final : public QueryEngine {
 public:
  /// `model`, `dataset`, and `store` must outlive the returned object.
  static Result<std::unique_ptr<DeepEverest>> Create(
      const nn::Model* model, const data::Dataset* dataset,
      storage::FileStore* store, const DeepEverestOptions& options);

  /// \brief Begins a resumable execution of `spec` — the one mechanism every
  /// query runs through.
  ///
  /// Validates the spec (the shared ValidateSpec choke point) immediately;
  /// all further work — derived `TOP m NEURONS [OF input]` resolution under
  /// `ctx` (receipt-metered, deadline-checked, cancellable), incremental
  /// index ensure, then tie-complete NTA one round per Step — happens in
  /// Step(). The canonical serving mode is tie-complete: results are
  /// bit-identical to a fresh activation scan even on k-th-boundary value
  /// ties, regardless of schedule, park/resume timing, or cache state. The
  /// spec's serving envelope (session, QoS, deadline, weight) is NOT applied
  /// here — scheduling is the QueryService's job; `ctx` carries whatever of
  /// it applies. `ctx` must be non-null and outlive the execution; when its
  /// `iqa` is null it is filled with the engine's cache.
  Result<std::unique_ptr<QueryExecution>> BeginSpec(const QuerySpec& spec,
                                                    QueryContext* ctx);

  /// Begin + Run: executes `spec` to completion. `ctx` may be null (a
  /// default context: no deadline, direct inference).
  Result<TopKResult> ExecuteSpec(const QuerySpec& spec,
                                 QueryContext* ctx = nullptr) override;

  std::string name() const override { return "DeepEverest"; }

  /// DeepEverest's storage is its persisted indexes.
  Result<uint64_t> StorageBytes() const override {
    return PersistedIndexBytes();
  }

  /// The `m` maximally activated neurons of `layer` for `target_id`
  /// (descending activation) — the standard way interpretation sessions
  /// choose their neuron groups (§4.7.1). Costs one inference pass, metered
  /// into `ctx->receipt` and routed through the context's batch scheduler,
  /// honouring cancellation/deadline; it is how BeginSpec resolves derived
  /// groups. `ctx` may be null (a default context).
  Result<std::vector<int64_t>> MaximallyActivatedNeurons(
      uint32_t target_id, int layer, int m, QueryContext* ctx = nullptr);

  /// Eagerly indexes every layer (paper Figure 10's extreme case). Without
  /// this call, indexes build incrementally as layers are queried.
  Status PreprocessAllLayers(PreprocessTimings* timings = nullptr);

  const SystemConfig& config() const { return config_; }
  const DeepEverestOptions& options() const { return options_; }
  nn::InferenceEngine* inference() { return &inference_; }
  IndexManager* index_manager() { return &index_manager_; }
  IqaCache* iqa_cache() { return iqa_cache_.get(); }

  /// Bytes of full float32 materialisation of every layer (the storage
  /// baseline all budgets are fractions of).
  uint64_t FullMaterializationBytes() const;

  /// Bytes of the index segments in the committed snapshot.
  Result<uint64_t> PersistedIndexBytes() const {
    return index_manager_.PersistedBytes();
  }

  /// Index cost for all layers under the paper's §4.7.2 accounting formulas
  /// (PID bits + MAI pairs; per-partition bounds excluded as negligible at
  /// the paper's scale). This is what the configuration selector budgets.
  uint64_t AnalyticIndexBytes() const;

 private:
  DeepEverest(const nn::Model* model, const data::Dataset* dataset,
              storage::FileStore* store, const DeepEverestOptions& options,
              const SystemConfig& config);

  const nn::Model* model_;
  DeepEverestOptions options_;
  SystemConfig config_;
  nn::InferenceEngine inference_;
  IndexManager index_manager_;
  std::unique_ptr<IqaCache> iqa_cache_;
};

}  // namespace core
}  // namespace deepeverest

#endif  // DEEPEVEREST_CORE_DEEPEVEREST_H_
