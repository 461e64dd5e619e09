#include "core/deepeverest.h"

#include <algorithm>
#include <numeric>
#include <utility>

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
    iqa_cache_ = std::make_unique<IqaCache>(options_.iqa_capacity_bytes);
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

  int64_t total_neurons = 0;
  for (int layer = 0; layer < model->num_layers(); ++layer) {
    total_neurons += model->NeuronCount(layer);
  }
  const uint64_t full_bytes =
      static_cast<uint64_t>(total_neurons) * dataset->size() * 4;
  if (options.storage_budget_fraction <= 0.0 ||
      options.storage_budget_fraction > 1.0) {
    return Status::InvalidArgument("storage_budget_fraction must be in (0, 1]");
  }
  const uint64_t budget = static_cast<uint64_t>(
      options.storage_budget_fraction * static_cast<double>(full_bytes));

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
  return QueryExecution::ForSpec(this, spec, ctx);
}

Result<TopKResult> DeepEverest::ExecuteSpec(const QuerySpec& spec,
                                            QueryContext* ctx) {
  QueryContext local_ctx;
  if (ctx == nullptr) ctx = &local_ctx;
  DE_ASSIGN_OR_RETURN(std::unique_ptr<QueryExecution> execution,
                      BeginSpec(spec, ctx));
  return execution->Run();
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
    DE_RETURN_NOT_OK(
        ComputeLayerInContext(&inference_, {target_id}, layer, ctx, &rows));
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
