#include "core/index_manager.h"

#include <ctime>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace deepeverest {
namespace core {

namespace {

const persist::SegmentInfo* IndexSegment(
    const persist::SnapshotManifest& manifest, int layer) {
  for (const persist::SegmentInfo& seg : manifest.segments) {
    if (seg.layer == layer && seg.kind == persist::SegmentKind::kIndex) {
      return &seg;
    }
  }
  return nullptr;
}

}  // namespace

bool IndexManager::IsIndexed(int layer) const {
  if (IsLoaded(layer)) return true;
  Result<persist::SnapshotManifest> manifest = CommittedManifest();
  return manifest.ok() && IndexSegment(*manifest, layer) != nullptr;
}

LayerIndexPtr IndexManager::Peek(int layer) const {
  common::ReaderMutexLock lock(&mu_);
  auto it = loaded_.find(layer);
  return it != loaded_.end() ? it->second : nullptr;
}

std::vector<int> IndexManager::LoadedLayers() const {
  common::ReaderMutexLock lock(&mu_);
  std::vector<int> layers;
  layers.reserve(loaded_.size());
  for (const auto& entry : loaded_) layers.push_back(entry.first);
  return layers;
}

LayerIndexPtr IndexManager::Publish(int layer, LayerIndex index) {
  auto shared = std::make_shared<const LayerIndex>(std::move(index));
  common::WriterMutexLock lock(&mu_);
  loaded_[layer] = shared;
  return shared;
}

common::Mutex* IndexManager::BuildMutexFor(int layer) {
  common::MutexLock lock(&build_map_mu_);
  auto& slot = build_mu_[layer];
  if (slot == nullptr) slot = std::make_unique<common::Mutex>();
  return slot.get();
}

Result<persist::SnapshotManifest> IndexManager::CommittedManifest() const {
  DE_ASSIGN_OR_RETURN(
      persist::SnapshotManifest manifest,
      persist::ReadManifest(store_, inference_->model().name()));
  if (manifest.dataset != inference_->dataset().name()) {
    return Status::IOError("snapshot was committed for dataset '" +
                           manifest.dataset + "', not '" +
                           inference_->dataset().name() + "'");
  }
  return manifest;
}

void IndexManager::Discard(int layer, const Status& why) {
  DE_LOG_WARNING << "discarding committed index for layer " << layer
                 << " and rebuilding: " << why.ToString();
  if (on_index_invalidated_) on_index_invalidated_(layer);
}

Result<LayerIndex> IndexManager::ReadCommitted(
    const persist::SnapshotManifest& manifest, int layer) {
  const persist::SegmentInfo* seg = IndexSegment(manifest, layer);
  if (seg == nullptr) return Status::NotFound("layer is not committed");
  auto load = [&]() -> Result<LayerIndex> {
    DE_ASSIGN_OR_RETURN(LayerIndex index,
                        persist::LoadIndexSegment(store_, *seg));
    if (layer < 0 || layer >= inference_->model().num_layers() ||
        index.num_neurons() != inference_->model().NeuronCount(layer)) {
      return Status::IOError("segment shape does not match the layer");
    }
    // A snapshot ahead of the dataset (its ingest log lost) would index
    // inputs that no longer exist.
    if (index.num_inputs() > inference_->dataset().size()) {
      return Status::IOError(
          "watermark " + std::to_string(index.num_inputs()) +
          " is past the dataset (" +
          std::to_string(inference_->dataset().size()) + " inputs)");
    }
    return index;
  };
  Result<LayerIndex> index = load();
  if (index.ok()) return index;
  Discard(layer, index.status());
  return Status::NotFound("layer has no valid committed segment");
}

uint32_t IndexManager::LoadCommitted(
    const persist::SnapshotManifest& manifest) {
  uint32_t loaded = 0;
  for (const persist::SegmentInfo& seg : manifest.segments) {
    if (seg.kind != persist::SegmentKind::kIndex) continue;
    if (!IsLoaded(seg.layer)) {
      Result<LayerIndex> index = ReadCommitted(manifest, seg.layer);
      if (!index.ok()) continue;
      common::WriterMutexLock lock(&mu_);
      loaded_.emplace(seg.layer,
                      std::make_shared<const LayerIndex>(std::move(*index)));
    }
    ++loaded;
  }
  return loaded;
}

Result<SnapshotInfo> IndexManager::CommitSnapshot() {
  common::MutexLock commit_lock(&commit_mu_);
  // The new generation replaces the committed one whole.
  Result<persist::SnapshotManifest> committed = CommittedManifest();
  if (committed.ok()) LoadCommitted(*committed);

  std::vector<LayerIndexPtr> pins;
  std::vector<std::pair<int, const LayerIndex*>> indexes;
  for (int layer : LoadedLayers()) {
    pins.push_back(Peek(layer));
    indexes.emplace_back(layer, pins.back().get());
  }
  SnapshotInfo info;
  // Read after pinning, so it is >= every pinned watermark.
  info.dataset_size = inference_->dataset().size();
  info.created_unix_seconds = static_cast<uint64_t>(std::time(nullptr));
  info.layers = static_cast<uint32_t>(indexes.size());
  DE_ASSIGN_OR_RETURN(
      info.bytes,
      persist::WriteSnapshot(store_, inference_->model().name(),
                             inference_->dataset().name(), info.dataset_size,
                             indexes, info.created_unix_seconds));
  common::WriterMutexLock lock(&mu_);
  last_snapshot_ = info;
  return info;
}

Status IndexManager::CommitTimed(PreprocessTimings* timings) {
  Stopwatch watch;
  DE_RETURN_NOT_OK(CommitSnapshot().status());
  if (timings != nullptr) timings->persist_seconds += watch.ElapsedSeconds();
  return Status::OK();
}

Result<SnapshotInfo> IndexManager::RestoreSnapshot() {
  common::MutexLock commit_lock(&commit_mu_);
  DE_ASSIGN_OR_RETURN(persist::SnapshotManifest manifest, CommittedManifest());
  // Crash leftovers: segments a commit wrote but never referenced.
  DE_RETURN_NOT_OK(
      persist::CollectGarbage(store_, inference_->model().name()));
  SnapshotInfo info;
  info.dataset_size = manifest.dataset_size;
  info.created_unix_seconds = manifest.created_unix_seconds;
  info.layers = LoadCommitted(manifest);
  DE_ASSIGN_OR_RETURN(
      info.bytes,
      store_->SizeOf(persist::ManifestKeyFor(inference_->model().name())));
  for (const persist::SegmentInfo& seg : manifest.segments) {
    info.bytes += seg.bytes;
  }
  common::WriterMutexLock lock(&mu_);
  last_snapshot_ = info;
  return info;
}

Result<storage::LayerActivationMatrix> IndexManager::ComputeRows(
    int layer, uint32_t base, uint32_t count, nn::InferenceReceipt* receipt) {
  const uint64_t num_neurons =
      static_cast<uint64_t>(inference_->model().NeuronCount(layer));
  std::vector<uint32_t> ids(count);
  std::iota(ids.begin(), ids.end(), base);
  std::vector<std::vector<float>> rows;
  DE_RETURN_NOT_OK(inference_->ComputeLayer(ids, layer, &rows, receipt));
  storage::LayerActivationMatrix acts =
      storage::LayerActivationMatrix::Make(count, num_neurons);
  for (uint32_t i = 0; i < count; ++i) {
    std::copy(rows[i].begin(), rows[i].end(), acts.MutableRow(i));
  }
  return acts;
}

Result<LayerIndexPtr> IndexManager::EnsureIndex(
    int layer, storage::LayerActivationMatrix* fresh_acts,
    PreprocessTimings* timings, nn::InferenceReceipt* receipt) {
  bool built = false;
  DE_ASSIGN_OR_RETURN(LayerIndexPtr index,
                      Ensure(layer, fresh_acts, timings, receipt, &built));
  // §4.6: a freshly built index is persisted — as a snapshot commit.
  if (built) DE_RETURN_NOT_OK(CommitTimed(timings));
  return index;
}

Result<LayerIndexPtr> IndexManager::Ensure(
    int layer, storage::LayerActivationMatrix* fresh_acts,
    PreprocessTimings* timings, nn::InferenceReceipt* receipt, bool* built) {
  if (layer < 0 || layer >= inference_->model().num_layers()) {
    return Status::OutOfRange("layer " + std::to_string(layer) +
                              " out of range");
  }
  // Fast path: already in memory (shared lock only).
  if (LayerIndexPtr index = Peek(layer)) return index;

  // Build-once/read-many: serialise loaders/builders of this layer while
  // other layers proceed in parallel. Whoever wins the race does the work;
  // later arrivals find the loaded entry on re-check.
  common::MutexLock build_lock(BuildMutexFor(layer));
  if (LayerIndexPtr index = Peek(layer)) return index;

  // Try the committed snapshot. Any validation failure (truncation, bit rot,
  // foreign dataset) falls through to a rebuild instead of serving it.
  {
    common::MutexLock commit_lock(&commit_mu_);
    Result<persist::SnapshotManifest> manifest = CommittedManifest();
    if (manifest.ok()) {
      Result<LayerIndex> committed = ReadCommitted(*manifest, layer);
      if (committed.ok()) return Publish(layer, std::move(*committed));
    } else if (!manifest.status().IsNotFound()) {
      Discard(layer, manifest.status());
    }
  }
  *built = true;
  return BuildIndex(layer, fresh_acts, timings, receipt);
}

Result<LayerIndexPtr> IndexManager::BuildIndex(
    int layer, storage::LayerActivationMatrix* fresh_acts,
    PreprocessTimings* timings, nn::InferenceReceipt* receipt) {
  const uint32_t num_inputs = inference_->dataset().size();

  // 1. DNN inference over the entire dataset for this layer (§4.6 notes
  // inference restarts from the first layer every time, because only queried
  // layers are persisted — ComputeLayer does exactly that).
  Stopwatch watch;
  DE_ASSIGN_OR_RETURN(storage::LayerActivationMatrix acts,
                      ComputeRows(layer, 0, num_inputs, receipt));
  const double inference_seconds = watch.ElapsedSeconds();

  // 2. Sort & partition: build NPI + MAI.
  watch.Reset();
  DE_ASSIGN_OR_RETURN(LayerIndex index,
                      LayerIndex::Build(acts, options_.layer_config));
  const double index_seconds = watch.ElapsedSeconds();

  if (timings != nullptr) {
    timings->inference_seconds += inference_seconds;
    timings->index_seconds += index_seconds;
  }
  if (fresh_acts != nullptr) *fresh_acts = std::move(acts);

  return Publish(layer, std::move(index));
}

Status IndexManager::CatchUp(int layer, uint32_t target_size,
                             nn::InferenceReceipt* receipt) {
  if (layer < 0 || layer >= inference_->model().num_layers()) {
    return Status::OutOfRange("layer " + std::to_string(layer) +
                              " out of range");
  }
  common::MutexLock build_lock(BuildMutexFor(layer));
  LayerIndexPtr current = Peek(layer);
  if (current == nullptr) {
    return Status::FailedPrecondition("layer " + std::to_string(layer) +
                                      " has no loaded index to merge into");
  }
  while (current->num_inputs() < target_size) {
    const uint32_t base = current->num_inputs();
    const uint32_t count = target_size - base;
    DE_ASSIGN_OR_RETURN(storage::LayerActivationMatrix delta,
                        ComputeRows(layer, base, count, receipt));
    Result<LayerIndex> merged = current->AppendInputs(delta);
    if (!merged.ok()) {
      if (merged.status().code() != StatusCode::kFailedPrecondition) {
        return merged.status();
      }
      // Degenerate index shape that cannot take appends: rebuild wholesale
      // at the target size (rare; only single-partition MAI configs).
      DE_ASSIGN_OR_RETURN(storage::LayerActivationMatrix all,
                          ComputeRows(layer, 0, target_size, receipt));
      merged = LayerIndex::Build(all, options_.layer_config);
      DE_RETURN_NOT_OK(merged.status());
    }
    current = Publish(layer, std::move(*merged));
  }
  return Status::OK();
}

Status IndexManager::PreprocessAllLayers(PreprocessTimings* timings) {
  bool built = false;
  for (int layer = 0; layer < inference_->model().num_layers(); ++layer) {
    if (IsLoaded(layer)) continue;
    DE_RETURN_NOT_OK(Ensure(layer, nullptr, timings, nullptr, &built).status());
  }
  // One commit after the last layer: committing per build would rewrite
  // every layer built so far once per layer.
  return built ? CommitTimed(timings) : Status::OK();
}

Result<uint64_t> IndexManager::PersistedBytes() const {
  Result<persist::SnapshotManifest> manifest =
      persist::ReadManifest(store_, inference_->model().name());
  if (manifest.status().IsNotFound()) return uint64_t{0};
  DE_RETURN_NOT_OK(manifest.status());
  uint64_t total = 0;
  for (const persist::SegmentInfo& seg : manifest->segments) {
    if (seg.kind == persist::SegmentKind::kIndex) total += seg.bytes;
  }
  return total;
}

}  // namespace core
}  // namespace deepeverest
