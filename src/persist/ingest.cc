#include "persist/ingest.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <utility>

#include "common/logging.h"

namespace deepeverest {
namespace persist {

IngestQueue::IngestQueue(core::DeepEverest* engine, data::Dataset* dataset,
                         storage::FileStore* store, IngestQueueOptions options)
    : engine_(engine),
      dataset_(dataset),
      store_(store),
      options_(std::move(options)),
      model_(engine->inference()->model().name()),
      log_(store, model_, options_.sync_log) {}

Result<std::unique_ptr<IngestQueue>> IngestQueue::Create(
    core::DeepEverest* engine, data::Dataset* dataset,
    storage::FileStore* store, IngestQueueOptions options) {
  if (engine == nullptr || dataset == nullptr || store == nullptr) {
    return Status::InvalidArgument("engine, dataset, and store are required");
  }
  std::unique_ptr<IngestQueue> queue(
      new IngestQueue(engine, dataset, store, std::move(options)));
  DE_RETURN_NOT_OK(queue->Recover());
  queue->applier_ = std::thread([q = queue.get()] { q->ApplierLoop(); });
  return queue;
}

IngestQueue::~IngestQueue() { Shutdown(); }

Status IngestQueue::Recover() {
  // 1. Replay the ingest log: the dataset already holds the deterministic
  // base inputs; every durably acknowledged ingest continues from there.
  DE_ASSIGN_OR_RETURN(std::vector<IngestRecord> records, log_.Replay());
  const int64_t expected_values = dataset_->input_shape().NumElements();
  for (IngestRecord& record : records) {
    if (record.input_id != dataset_->size()) {
      return Status::FailedPrecondition(
          "ingest log for '" + model_ + "' does not continue the dataset: "
          "record id " + std::to_string(record.input_id) + ", dataset size " +
          std::to_string(dataset_->size()) +
          " (base dataset changed under the store?)");
    }
    if (static_cast<int64_t>(record.values.size()) != expected_values) {
      return Status::FailedPrecondition("ingest log record shape mismatch");
    }
    dataset_->Add(Tensor(dataset_->input_shape(), std::move(record.values)),
                  record.label);
    ++recovered_inputs_;
  }

  // 2. Restore indexes from the last committed snapshot, through the same
  // validated segment load a lazy EnsureIndex uses. Anything wrong —
  // missing, corrupt, from another dataset, or past the replayed log — is
  // rebuilt on first use, never partially trusted.
  core::IndexManager* indexes = engine_->index_manager();
  Result<core::SnapshotInfo> restored = indexes->RestoreSnapshot();
  if (restored.ok()) {
    recovered_layers_ = restored->layers;
  } else if (!restored.status().IsNotFound()) {
    DE_LOG_WARNING << "snapshot for model '" << model_
                   << "' failed to load; cold start: "
                   << restored.status().ToString();
  }

  // Anything between the lowest loaded watermark and the dataset size is
  // merged by the applier's first pass.
  uint32_t min_watermark = dataset_->size();
  for (int layer : indexes->LoadedLayers()) {
    min_watermark = std::min(min_watermark, indexes->Peek(layer)->num_inputs());
  }
  common::MutexLock lock(&mu_);
  applied_size_ = min_watermark;
  return Status::OK();
}

Result<service::IngestAck> IngestQueue::Ingest(
    const std::vector<service::IngestInput>& inputs) {
  if (inputs.empty()) {
    return Status::InvalidArgument("ingest batch is empty");
  }
  const int64_t expected_values = dataset_->input_shape().NumElements();
  for (const service::IngestInput& input : inputs) {
    if (static_cast<int64_t>(input.values.size()) != expected_values) {
      return Status::InvalidArgument(
          "input has " + std::to_string(input.values.size()) +
          " values, expected " + std::to_string(expected_values));
    }
  }

  common::MutexLock lock(&mu_);
  if (shutdown_) {
    return Status::FailedPrecondition("ingest queue is shut down");
  }
  // Admission control: bound how far the index tier may lag the dataset.
  const uint32_t backlog = dataset_->size() - applied_size_;
  if (backlog + inputs.size() > options_.max_backlog) {
    ++rejected_total_;
    return Status::ResourceExhausted(
        "ingest backlog is full (" + std::to_string(backlog) + " of " +
        std::to_string(options_.max_backlog) + " unapplied inputs)");
  }

  // Durability ordering: the whole batch is fsynced into the log BEFORE any
  // input becomes visible in the dataset, so everything a query or merge can
  // observe — and everything we acknowledge — survives a crash.
  std::vector<IngestRecord> records;
  records.reserve(inputs.size());
  uint32_t next_id = dataset_->size();
  for (const service::IngestInput& input : inputs) {
    IngestRecord record;
    record.input_id = next_id++;
    record.label = input.label;
    record.values = input.values;
    records.push_back(std::move(record));
  }
  DE_RETURN_NOT_OK(log_.AppendBatch(records));

  service::IngestAck ack;
  ack.first_id = dataset_->size();
  ack.count = static_cast<uint32_t>(records.size());
  for (IngestRecord& record : records) {
    dataset_->Add(Tensor(dataset_->input_shape(), std::move(record.values)),
                  record.label);
  }
  ack.dataset_size = dataset_->size();
  ingested_total_ += ack.count;
  cv_.NotifyAll();
  return ack;
}

void IngestQueue::ApplierLoop() {
  for (;;) {
    uint32_t target = 0;
    {
      common::MutexLock lock(&mu_);
      while (!shutdown_ && dataset_->size() == applied_size_) {
        cv_.Wait(&mu_);
      }
      if (shutdown_) return;
      applying_ = true;
      target = dataset_->size();
    }
    const Status applied = ApplyTo(target);
    bool want_snapshot = false;
    {
      common::MutexLock lock(&mu_);
      applying_ = false;
      if (applied.ok()) {
        applied_since_snapshot_ += target - applied_size_;
        applied_size_ = target;
        ++applies_total_;
        want_snapshot = options_.snapshot_every > 0 &&
                        applied_since_snapshot_ >= options_.snapshot_every;
      } else {
        DE_LOG_WARNING << "ingest apply for model '" << model_
                       << "' failed (will retry): " << applied.ToString();
      }
      cv_.NotifyAll();
    }
    if (want_snapshot) {
      const Status saved = SaveSnapshot();
      if (!saved.ok()) {
        DE_LOG_WARNING << "auto-snapshot for model '" << model_
                       << "' failed: " << saved.ToString();
      }
    }
  }
}

Status IngestQueue::ApplyTo(uint32_t target) {
  common::MutexLock lock(&apply_mu_);
  const std::vector<int> layers = engine_->index_manager()->LoadedLayers();
  if (layers.empty()) return Status::OK();

  // Per-apply trace, pushed into the service's trace ring: `/v1/trace/<id>`
  // answers for ingest applies exactly like for queries.
  auto trace = std::make_shared<Trace>(Trace::NextId());
  const int span = trace->StartSpan("ingest.apply");
  nn::InferenceReceipt receipt;
  Status status = Status::OK();
  int merged_layers = 0;
  for (int layer : layers) {
    status = engine_->index_manager()->CatchUp(layer, target, &receipt);
    if (!status.ok()) break;
    ++merged_layers;
  }
  trace->AddInt(span, "target", target);
  trace->AddInt(span, "layers", merged_layers);
  trace->AddInt(span, "inputs_run", receipt.inputs_run);
  trace->EndSpan(span);
  trace->Finish();
  if (options_.trace_sink) options_.trace_sink(std::move(trace));
  return status;
}

Status IngestQueue::SaveSnapshot() {
  common::MutexLock lock(&apply_mu_);
  const uint32_t target = dataset_->size();
  for (int layer : engine_->index_manager()->LoadedLayers()) {
    DE_RETURN_NOT_OK(engine_->index_manager()->CatchUp(layer, target));
  }
  DE_RETURN_NOT_OK(engine_->index_manager()->CommitSnapshot().status());

  common::MutexLock state_lock(&mu_);
  // The snapshot catch-up may have raced ahead of the applier's bookkeeping.
  if (target > applied_size_) {
    applied_size_ = target;
    cv_.NotifyAll();
  }
  ++snapshots_written_;
  applied_since_snapshot_ = 0;
  return Status::OK();
}

service::IngestStats IngestQueue::Stats() const {
  service::IngestStats stats;
  stats.dataset_size = dataset_->size();
  for (int layer : engine_->index_manager()->LoadedLayers()) {
    core::LayerIndexPtr index = engine_->index_manager()->Peek(layer);
    if (index == nullptr) continue;
    stats.layers.push_back({layer, index->num_inputs()});
    stats.min_watermark = stats.layers.size() == 1
                              ? index->num_inputs()
                              : std::min(stats.min_watermark,
                                         index->num_inputs());
  }
  const core::SnapshotInfo snapshot =
      engine_->index_manager()->last_snapshot();
  stats.snapshot_bytes = static_cast<int64_t>(snapshot.bytes);
  stats.snapshot_dataset_size = snapshot.dataset_size;
  stats.snapshot_age_seconds =
      snapshot.created_unix_seconds > 0
          ? static_cast<double>(static_cast<uint64_t>(std::time(nullptr)) -
                                snapshot.created_unix_seconds)
          : -1.0;
  common::MutexLock lock(&mu_);
  stats.ingested_total = ingested_total_;
  stats.rejected_total = rejected_total_;
  stats.applies_total = applies_total_;
  stats.snapshots_written = snapshots_written_;
  return stats;
}

bool IngestQueue::WaitIdle(double timeout_seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  common::MutexLock lock(&mu_);
  while (applying_ || dataset_->size() != applied_size_) {
    if (shutdown_) return false;
    if (!cv_.WaitUntil(&mu_, deadline)) {
      return !applying_ && dataset_->size() == applied_size_;
    }
  }
  return true;
}

void IngestQueue::Shutdown() {
  {
    common::MutexLock lock(&mu_);
    if (shutdown_) return;
    shutdown_ = true;
    cv_.NotifyAll();
  }
  if (applier_.joinable()) applier_.join();
}

}  // namespace persist
}  // namespace deepeverest
