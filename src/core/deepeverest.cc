#include "core/deepeverest.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/stopwatch.h"
#include "common/trace.h"
#include "nn/batch_scheduler.h"

namespace deepeverest {
namespace core {

DeepEverest::DeepEverest(const nn::Model* model, const data::Dataset* dataset,
                         storage::FileStore* store,
                         const DeepEverestOptions& options,
                         const SystemConfig& config)
    : model_(model),
      options_(options),
      config_(config),
      inference_(model, dataset, options.batch_size),
      index_manager_(&inference_, store,
                     IndexManagerOptions{config.ToLayerConfig()}) {
  if (options_.enable_iqa) {
    iqa_cache_ = std::make_unique<IqaCache>(options_.iqa_capacity_bytes,
                                            options_.iqa_shards);
    // When a committed index fails validation and is rebuilt, drop the
    // layer's cached activation rows too: they are recomputable and cheap to
    // lose, and this keeps "discard corrupt derived state" a single switch.
    index_manager_.set_index_invalidation_hook(
        [this](int layer) { iqa_cache_->EraseLayer(layer); });
  }
}

Result<std::unique_ptr<DeepEverest>> DeepEverest::Create(
    const nn::Model* model, const data::Dataset* dataset,
    storage::FileStore* store, const DeepEverestOptions& options) {
  if (model == nullptr || dataset == nullptr || store == nullptr) {
    return Status::InvalidArgument("model, dataset, and store are required");
  }
  if (!model->finalized()) {
    return Status::FailedPrecondition("model must be finalized");
  }
  if (dataset->size() == 0) {
    return Status::InvalidArgument("dataset is empty");
  }
  if (options.batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  if (options.iqa_shards < 1) {
    return Status::InvalidArgument("iqa_shards must be >= 1");
  }

  int64_t total_neurons = 0;
  for (int layer = 0; layer < model->num_layers(); ++layer) {
    total_neurons += model->NeuronCount(layer);
  }
  const uint64_t full_bytes =
      static_cast<uint64_t>(total_neurons) * dataset->size() * 4;
  uint64_t budget = options.storage_budget_bytes;
  if (budget == 0) {
    if (options.storage_budget_fraction <= 0.0 ||
        options.storage_budget_fraction > 1.0) {
      return Status::InvalidArgument(
          "storage_budget_fraction must be in (0, 1]");
    }
    budget = static_cast<uint64_t>(options.storage_budget_fraction *
                                   static_cast<double>(full_bytes));
  }

  SystemConfig config = SelectConfig(budget, options.batch_size,
                                     dataset->size(), total_neurons);
  if (options.num_partitions_override > 0) {
    config.num_partitions = options.num_partitions_override;
  }
  if (options.mai_ratio_override >= 0.0) {
    if (options.mai_ratio_override > 1.0) {
      return Status::InvalidArgument("mai_ratio_override must be <= 1");
    }
    config.mai_ratio = options.mai_ratio_override;
  }

  return std::unique_ptr<DeepEverest>(
      new DeepEverest(model, dataset, store, options, config));
}

uint64_t DeepEverest::AnalyticIndexBytes() const {
  int64_t total_neurons = 0;
  for (int layer = 0; layer < model_->num_layers(); ++layer) {
    total_neurons += model_->NeuronCount(layer);
  }
  const uint32_t num_inputs = inference_.dataset().size();
  return NpiCostBytes(total_neurons, num_inputs, config_.num_partitions) +
         MaiCostBytes(total_neurons, num_inputs, config_.mai_ratio);
}

uint64_t DeepEverest::FullMaterializationBytes() const {
  int64_t total_neurons = 0;
  for (int layer = 0; layer < model_->num_layers(); ++layer) {
    total_neurons += model_->NeuronCount(layer);
  }
  return static_cast<uint64_t>(total_neurons) * inference_.dataset().size() *
         4;
}

namespace {

// Validated before the index ensure: the §4.6 fresh-scan path reads
// activation rows with unchecked indexing (NtaEngine re-validates on its own
// path, but by then an out-of-range neuron would already have been scanned).
Status ValidateGroup(const nn::Model& model, const NeuronGroup& group) {
  if (group.neurons.empty()) {
    return Status::InvalidArgument("neuron group is empty");
  }
  if (group.layer < 0 || group.layer >= model.num_layers()) {
    return Status::OutOfRange("layer " + std::to_string(group.layer) +
                              " out of range");
  }
  const int64_t layer_neurons = model.NeuronCount(group.layer);
  for (int64_t n : group.neurons) {
    if (n < 0 || n >= layer_neurons) {
      return Status::OutOfRange("neuron " + std::to_string(n) +
                                " out of range for layer " +
                                std::to_string(group.layer));
    }
  }
  return Status::OK();
}

/// Charges a Step's wall time to the execution's active-time accumulator on
/// every exit path (mirrors NtaExecution's accounting: parked time between
/// Step calls costs the query nothing).
class ActiveTimeCharge {
 public:
  explicit ActiveTimeCharge(double* acc) : acc_(acc) {}
  ~ActiveTimeCharge() { *acc_ += watch_.ElapsedSeconds(); }
  ActiveTimeCharge(const ActiveTimeCharge&) = delete;
  ActiveTimeCharge& operator=(const ActiveTimeCharge&) = delete;

 private:
  Stopwatch watch_;
  double* acc_;
};

}  // namespace

/// Whole-query phase machine. Coarse phases (resolution, index ensure) run
/// as single steps; the NTA phase delegates one round per Step to the inner
/// NtaExecution. Everything needed to continue after a park — the resolved
/// group, the index pointer (owned by the IndexManager, stable), the NTA
/// engine and its execution, the open "nta" span — lives here.
struct QueryExecution::Impl {
  enum class Phase {
    kResolve,      // derived-group resolution (≤ one inference pass)
    kEnsureIndex,  // incremental index ensure; may answer via fresh scan
    kNta,          // one NTA round per Step
    kDone,
  };

  Impl(DeepEverest* system_in, const QuerySpec& spec_in, QueryContext* ctx_in)
      : system(system_in),
        spec(spec_in),
        ctx(ctx_in),
        start_receipt(ctx_in->receipt) {}

  DeepEverest* system;
  QuerySpec spec;
  QueryContext* ctx;
  nn::InferenceReceipt start_receipt;

  Phase phase = Phase::kResolve;
  Status error = Status::OK();
  NeuronGroup group;
  // The query's pinned index version: holding the shared_ptr keeps this
  // exact index alive even if ingest swaps a newer one into the
  // IndexManager mid-query, so every round sees one consistent dataset
  // prefix and the answer is bit-identical to a fresh scan over it.
  LayerIndexPtr index_ref;
  // The NTA engine must outlive its execution across steps (the old code
  // stack-allocated it inside a run-to-completion frame).
  std::unique_ptr<NtaEngine> engine;
  std::unique_ptr<NtaExecution> nta;
  int nta_span = -1;  // open "nta" span while the NTA phase runs
  TopKResult result;  // valid once `have_result`
  bool have_result = false;
  double active_seconds = 0.0;

  void EndNtaSpan() {
    if (nta_span >= 0 && ctx->trace != nullptr) ctx->trace->EndSpan(nta_span);
    nta_span = -1;
  }

  Status StepResolve() {
    group.layer = spec.layer;
    if (spec.has_derived_group()) {
      // Resolution runs under the query's context: metered into its
      // receipt, routed through its batch scheduler, aborted by
      // deadline/cancel.
      const int64_t reference =
          spec.top_of >= 0 ? spec.top_of : spec.target_id;
      SpanScope span(ctx->trace.get(), "resolve_group");
      DE_ASSIGN_OR_RETURN(
          group.neurons,
          system->MaximallyActivatedNeurons(static_cast<uint32_t>(reference),
                                            spec.layer, spec.top_neurons,
                                            ctx));
      span.AddInt("inputs_run",
                  ctx->receipt.inputs_run - start_receipt.inputs_run);
    } else {
      group.neurons = spec.neurons;
    }
    phase = Phase::kEnsureIndex;
    return Status::OK();
  }

  Status StepEnsureIndex() {
    DE_RETURN_NOT_OK(ValidateGroup(system->inference()->model(), group));
    const bool has_target_id =
        spec.kind == QuerySpec::Kind::kMostSimilar && spec.target_id >= 0;
    if (has_target_id && static_cast<uint64_t>(spec.target_id) >=
                             system->inference()->dataset().size()) {
      return Status::OutOfRange("target input out of range");
    }
    if (!spec.target_activations.empty() &&
        spec.target_activations.size() != group.neurons.size()) {
      return Status::InvalidArgument("target activation count mismatch");
    }
    DE_RETURN_NOT_OK(ctx->CheckRunnable());

    // Per-query receipt metering via the context: any index-build inference
    // is charged to the query that actually performed the build (§4.6
    // trigger); NTA meters its own calls into the same receipt. Unlike a
    // before/after stats() delta, concurrent queries on the shared engine
    // can never leak into these numbers.
    const nn::InferenceReceipt ensure_start = ctx->receipt;
    storage::LayerActivationMatrix fresh;
    {
      SpanScope span(ctx->trace.get(), "index.ensure");
      DE_ASSIGN_OR_RETURN(index_ref, system->index_manager()->EnsureIndex(
                                         group.layer, &fresh, nullptr,
                                         &ctx->receipt));
      span.AddInt("inputs_run",
                  ctx->receipt.inputs_run - ensure_start.inputs_run);
      span.AddInt("built", fresh.num_inputs > 0 ? 1 : 0);
    }
    // Pin the dataset version this query answers over. Candidates only ever
    // come from the pinned index, so the result covers exactly the prefix
    // [0, pinned_dataset_version) even while ingest grows the dataset.
    ctx->pinned_dataset_version = index_ref->num_inputs();
    // The build (or the wait on another thread's build) may have consumed
    // the whole deadline budget; abort before scanning or running NTA.
    DE_RETURN_NOT_OK(ctx->CheckRunnable());

    NtaOptions options;
    options.k = spec.k;
    options.theta = spec.theta;
    // Canonical serving mode: tie-complete termination makes the result
    // bit-identical to a fresh activation scan even on exact value ties at
    // the k-th boundary, so every entry point — and every park/resume
    // schedule — returns the same answer.
    options.tie_complete = true;
    options.use_mai = system->options().enable_mai;
    DE_ASSIGN_OR_RETURN(options.dist, MakeDistance(spec.distance));

    // Answer from the freshly computed matrix when possible (§4.6). A
    // most-similar target ingested after the build started is not covered by
    // `fresh`; fall through to NTA, whose prologue computes the target's
    // activations via inference.
    const bool target_in_fresh =
        !has_target_id ||
        static_cast<uint64_t>(spec.target_id) < fresh.num_inputs;
    if (fresh.num_inputs > 0 && target_in_fresh) {
      // Incremental indexing (§4.6): the index was just built, which
      // computed every input's activations anyway — answer the triggering
      // query from them directly.
      SpanScope span(ctx->trace.get(), "scan");
      if (spec.kind == QuerySpec::Kind::kHighest) {
        result = ScanHighest(fresh, group.neurons, spec.k, options.dist);
      } else if (has_target_id) {
        const uint32_t target_id = static_cast<uint32_t>(spec.target_id);
        std::vector<float> target_acts(group.neurons.size());
        for (size_t i = 0; i < group.neurons.size(); ++i) {
          target_acts[i] =
              fresh.At(target_id, static_cast<uint64_t>(group.neurons[i]));
        }
        result = ScanMostSimilar(fresh, group.neurons, target_acts, spec.k,
                                 options.dist, /*exclude_target=*/true,
                                 target_id);
      } else {
        result = ScanMostSimilar(fresh, group.neurons,
                                 spec.target_activations, spec.k,
                                 options.dist, /*exclude_target=*/false, 0);
      }
      have_result = true;
      phase = Phase::kDone;
      return Status::OK();
    }

    // The NTA phase spans many Steps; keep its span open across them.
    if (ctx->trace != nullptr) nta_span = ctx->trace->StartSpan("nta");
    engine = std::make_unique<NtaEngine>(system->inference(), index_ref.get());
    Result<std::unique_ptr<NtaExecution>> begun =
        spec.kind == QuerySpec::Kind::kHighest
            ? engine->BeginHighest(group, options, ctx)
        : has_target_id
            ? engine->BeginMostSimilarTo(
                  group, static_cast<uint32_t>(spec.target_id), options, ctx)
            : engine->BeginMostSimilar(group, spec.target_activations,
                                       options, ctx);
    if (!begun.ok()) return begun.status();
    nta = std::move(begun).value();
    phase = Phase::kNta;
    return Status::OK();
  }

  Status StepNta() {
    DE_RETURN_NOT_OK(nta->Step());
    if (!nta->done()) return Status::OK();
    Result<TopKResult> taken = nta->TakeResult();
    EndNtaSpan();
    if (!taken.ok()) return taken.status();
    result = std::move(taken).value();
    have_result = true;
    phase = Phase::kDone;
    return Status::OK();
  }
};

QueryExecution::QueryExecution(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

QueryExecution::~QueryExecution() {
  // Abandoned mid-NTA (e.g. service shutdown with a parked query): close
  // the open span so the trace stays well-formed.
  if (impl_ != nullptr) impl_->EndNtaSpan();
}

bool QueryExecution::done() const {
  return impl_->phase == Impl::Phase::kDone;
}

Status QueryExecution::Step() {
  Impl& im = *impl_;
  if (im.phase == Impl::Phase::kDone) return im.error;
  ActiveTimeCharge charge(&im.active_seconds);
  Status s = Status::OK();
  switch (im.phase) {
    case Impl::Phase::kResolve:
      s = im.StepResolve();
      break;
    case Impl::Phase::kEnsureIndex:
      s = im.StepEnsureIndex();
      break;
    case Impl::Phase::kNta:
      s = im.StepNta();
      break;
    case Impl::Phase::kDone:
      break;
  }
  if (!s.ok()) {
    im.EndNtaSpan();
    im.error = s;
    im.phase = Impl::Phase::kDone;
  }
  return s;
}

Status QueryExecution::RunUntil(const std::function<bool()>& should_yield) {
  while (!done()) {
    DE_RETURN_NOT_OK(Step());
    if (!done() && should_yield && should_yield()) return Status::OK();
  }
  return Status::OK();
}

Result<TopKResult> QueryExecution::Run() {
  while (!done()) {
    const Status s = Step();
    if (!s.ok()) return s;
  }
  return TakeResult();
}

Result<TopKResult> QueryExecution::TakeResult() {
  Impl& im = *impl_;
  if (im.phase != Impl::Phase::kDone) {
    return Status::FailedPrecondition("query execution is not finished");
  }
  if (!im.error.ok()) return im.error;
  TopKResult result = std::move(im.result);
  // Receipt delta over the whole execution: derived-group resolution and
  // index-build inference are part of the query's exact attribution.
  QueryStats& stats = result.stats;
  stats.inputs_run =
      im.ctx->receipt.inputs_run - im.start_receipt.inputs_run;
  stats.batches_run =
      im.ctx->receipt.batches_run - im.start_receipt.batches_run;
  stats.simulated_gpu_seconds = im.ctx->receipt.simulated_gpu_seconds -
                                im.start_receipt.simulated_gpu_seconds;
  stats.wall_seconds = im.active_seconds;
  stats.dataset_version = im.ctx->pinned_dataset_version;
  return result;
}

Result<std::unique_ptr<QueryExecution>> DeepEverest::BeginSpec(
    const QuerySpec& spec, QueryContext* ctx) {
  DE_RETURN_NOT_OK(ValidateSpec(spec));
  if (ctx == nullptr) {
    return Status::InvalidArgument(
        "a QueryContext is required to begin an execution");
  }
  if (ctx->iqa == nullptr) ctx->iqa = iqa_cache_.get();
  // Engine-direct callers get the spec's progress sink too (the service
  // moves the sink into the context at admission instead, leaving the
  // spec's empty — a context that already has a sink keeps it).
  if (spec.on_progress && !ctx->on_progress) {
    ctx->on_progress = spec.on_progress;
  }
  std::unique_ptr<QueryExecution::Impl> impl(
      new QueryExecution::Impl(this, spec, ctx));
  return std::unique_ptr<QueryExecution>(new QueryExecution(std::move(impl)));
}

Result<TopKResult> DeepEverest::ExecuteSpec(const QuerySpec& spec,
                                            QueryContext* ctx) {
  QueryContext local_ctx;
  if (ctx == nullptr) ctx = &local_ctx;
  DE_ASSIGN_OR_RETURN(std::unique_ptr<QueryExecution> execution,
                      BeginSpec(spec, ctx));
  return execution->Run();
}

Result<TopKResult> DeepEverest::TopKHighest(const NeuronGroup& group, int k,
                                            DistanceKind distance) {
  QuerySpec spec;
  spec.kind = QuerySpec::Kind::kHighest;
  spec.k = k;
  spec.layer = group.layer;
  spec.neurons = group.neurons;
  spec.distance = distance;
  return ExecuteSpec(spec);
}

Result<TopKResult> DeepEverest::TopKMostSimilar(uint32_t target_id,
                                                const NeuronGroup& group,
                                                int k, DistanceKind distance) {
  QuerySpec spec;
  spec.kind = QuerySpec::Kind::kMostSimilar;
  spec.k = k;
  spec.layer = group.layer;
  spec.neurons = group.neurons;
  spec.target_id = static_cast<int64_t>(target_id);
  spec.distance = distance;
  return ExecuteSpec(spec);
}

Result<std::vector<int64_t>> DeepEverest::MaximallyActivatedNeurons(
    uint32_t target_id, int layer, int m) {
  QueryContext local_ctx;
  return MaximallyActivatedNeurons(target_id, layer, m, &local_ctx);
}

Result<std::vector<int64_t>> DeepEverest::MaximallyActivatedNeurons(
    uint32_t target_id, int layer, int m, QueryContext* ctx) {
  if (target_id >= inference_.dataset().size()) {
    return Status::OutOfRange("target input out of range");
  }
  if (layer < 0 || layer >= model_->num_layers()) {
    return Status::OutOfRange("layer out of range");
  }
  if (m < 1) return Status::InvalidArgument("m must be >= 1");
  QueryContext local_ctx;
  if (ctx == nullptr) ctx = &local_ctx;
  if (ctx->iqa == nullptr) ctx->iqa = iqa_cache_.get();
  DE_RETURN_NOT_OK(ctx->CheckRunnable());
  const int64_t neurons = model_->NeuronCount(layer);
  if (m > neurons) m = static_cast<int>(neurons);

  // Serve from the IQA cache when a prior query already computed this row.
  std::vector<float> row;
  const bool cached =
      ctx->iqa != nullptr && ctx->iqa->Lookup(layer, target_id, &row);
  if (!cached) {
    std::vector<std::vector<float>> rows;
    SpanScope span(ctx->trace.get(), "compute_layer");
    const nn::InferenceReceipt before = ctx->receipt;
    if (ctx->scheduler != nullptr) {
      DE_RETURN_NOT_OK(ctx->scheduler->ComputeLayer(
          {target_id}, layer, &rows, &ctx->receipt, ctx->qos));
    } else {
      DE_RETURN_NOT_OK(
          inference_.ComputeLayer({target_id}, layer, &rows, &ctx->receipt));
    }
    span.AddInt("inputs", 1);
    span.AddDouble("batches_share",
                   ctx->receipt.batches_run - before.batches_run);
    span.AddDouble(
        "gpu_seconds",
        ctx->receipt.simulated_gpu_seconds - before.simulated_gpu_seconds);
    row = std::move(rows[0]);
    if (ctx->iqa != nullptr) {
      ctx->iqa->Insert(layer, target_id, row);
    }
  }

  std::vector<int64_t> order(static_cast<size_t>(neurons));
  std::iota(order.begin(), order.end(), int64_t{0});
  std::partial_sort(order.begin(), order.begin() + m, order.end(),
                    [&](int64_t a, int64_t b) {
                      const float va = row[static_cast<size_t>(a)];
                      const float vb = row[static_cast<size_t>(b)];
                      if (va != vb) return va > vb;
                      return a < b;
                    });
  order.resize(static_cast<size_t>(m));
  return order;
}

Status DeepEverest::PreprocessAllLayers(PreprocessTimings* timings) {
  return index_manager_.PreprocessAllLayers(timings);
}

}  // namespace core
}  // namespace deepeverest
