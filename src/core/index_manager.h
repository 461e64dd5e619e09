#ifndef DEEPEVEREST_CORE_INDEX_MANAGER_H_
#define DEEPEVEREST_CORE_INDEX_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "core/npi.h"
#include "nn/inference.h"
#include "persist/snapshot.h"
#include "storage/file_store.h"

namespace deepeverest {
namespace core {

/// \brief Wall-clock breakdown of building one layer's index, matching the
/// paper's Figure 10 components.
struct PreprocessTimings {
  double inference_seconds = 0.0;  // DNN inference over the dataset
  double index_seconds = 0.0;      // sort & partition, MAI extraction
  double persist_seconds = 0.0;    // serialisation + write (+fsync)

  PreprocessTimings& operator+=(const PreprocessTimings& other) {
    inference_seconds += other.inference_seconds;
    index_seconds += other.index_seconds;
    persist_seconds += other.persist_seconds;
    return *this;
  }
};

struct IndexManagerOptions {
  LayerIndexConfig layer_config;
};

/// One committed snapshot generation, as written or restored.
struct SnapshotInfo {
  uint64_t bytes = 0;         // manifest + segment files
  uint32_t dataset_size = 0;  // dataset watermark in the manifest
  uint64_t created_unix_seconds = 0;
  uint32_t layers = 0;  // layers written / restored
};

/// Immutable, shared view of one layer's index. Queries hold a reference for
/// their whole lifetime, pinning the dataset version (== num_inputs()) they
/// started at even if ingest swaps in a newer index underneath them.
using LayerIndexPtr = std::shared_ptr<const LayerIndex>;

/// \brief Builds, merges, and publishes per-layer indexes in memory — the
/// incremental indexing strategy of paper §4.6, extended with live appends
/// for the ingest path — and commits them as the model's persist/ snapshot,
/// the only durable index format.
///
/// No preprocessing happens up front: the first query against a layer pays
/// for one full-dataset inference pass over that layer, builds NPI+MAI from
/// the computed activations, and commits a snapshot holding every loaded
/// layer. A miss first tries the layer's committed segment, so later
/// sessions over the same FileStore reuse it.
///
/// Thread-safety: all public methods are safe to call concurrently. Index
/// construction is build-once/read-many: a per-layer build mutex serialises
/// builders/mergers of the *same* layer (the losers wait and then reuse the
/// winner's index, so the expensive full-dataset inference pass runs exactly
/// once per layer), while different layers build in parallel. Loaded indexes
/// are immutable and handed out as shared_ptr; CatchUp replaces the pointer
/// wholesale, so readers of the old version are never invalidated. One
/// mutex serialises snapshot commits, so generations never race.
class IndexManager {
 public:
  /// Does not take ownership; all pointers must outlive the manager.
  IndexManager(nn::InferenceEngine* inference, storage::FileStore* store,
               IndexManagerOptions options)
      : inference_(inference), store_(store), options_(std::move(options)) {}

  IndexManager(const IndexManager&) = delete;
  IndexManager& operator=(const IndexManager&) = delete;

  /// Returns the index for `layer`, building it incrementally if missing.
  /// When the index had to be built, the full activation matrix computed in
  /// the process is moved into `*fresh_acts` (if non-null) so the caller
  /// can answer the triggering query from it directly — exactly the §4.6
  /// flow. `timings`, if non-null, receives the build-cost breakdown (zeros
  /// when the index was already available). `receipt`, if non-null, is
  /// charged the build's inference — only callers that actually performed
  /// the build pay; losers of a build race (and disk loads) add nothing.
  /// A build commits a snapshot; a failed commit fails the call.
  Result<LayerIndexPtr> EnsureIndex(
      int layer, storage::LayerActivationMatrix* fresh_acts = nullptr,
      PreprocessTimings* timings = nullptr,
      nn::InferenceReceipt* receipt = nullptr);

  /// The loaded index for `layer`, or nullptr (never touches disk).
  LayerIndexPtr Peek(int layer) const;

  /// Layers currently loaded in memory, ascending.
  std::vector<int> LoadedLayers() const;

  /// Merges inputs [index.num_inputs, target_size) into `layer`'s loaded
  /// index: inference on just the new rows, incremental NPI/MAI insert,
  /// pointer swap; the next snapshot commit makes it durable. No-op when
  /// already caught up; error if the layer was never built (first query
  /// builds at full size anyway).
  /// Serialises with concurrent builders via the per-layer build mutex.
  Status CatchUp(int layer, uint32_t target_size,
                 nn::InferenceReceipt* receipt = nullptr);

  /// Whether the layer's index is loaded or in the committed snapshot.
  bool IsIndexed(int layer) const;

  /// True only if the index is already loaded in memory.
  bool IsLoaded(int layer) const {
    common::ReaderMutexLock lock(&mu_);
    return loaded_.count(layer) != 0;
  }

  /// Builds indexes for every model layer front to back (the paper's
  /// extreme preprocessing experiment, Figure 10), then commits them in one
  /// snapshot. Accumulates timings.
  Status PreprocessAllLayers(PreprocessTimings* timings = nullptr);

  /// Bytes of the index segments in this model's committed snapshot.
  Result<uint64_t> PersistedBytes() const;

  /// Commits every loaded layer as one new snapshot generation (every write
  /// fsynced). Committed layers not loaded yet are loaded first, so a commit
  /// never drops a layer.
  Result<SnapshotInfo> CommitSnapshot();

  /// Loads every layer of the committed snapshot that passes validation
  /// (startup recovery). NotFound when nothing was committed.
  Result<SnapshotInfo> RestoreSnapshot();

  /// The snapshot last committed or restored here (zeros when none).
  SnapshotInfo last_snapshot() const {
    common::ReaderMutexLock lock(&mu_);
    return last_snapshot_;
  }

  /// Called whenever a committed segment for `layer` fails validation and is
  /// discarded for a rebuild — the hook that lets the engine drop derived
  /// caches (IqaCache) for that layer. Must not call back into the manager.
  void set_index_invalidation_hook(std::function<void(int)> hook) {
    on_index_invalidated_ = std::move(hook);
  }

 private:
  /// EnsureIndex without the commit; sets `*built` when it had to build.
  Result<LayerIndexPtr> Ensure(int layer,
                               storage::LayerActivationMatrix* fresh_acts,
                               PreprocessTimings* timings,
                               nn::InferenceReceipt* receipt, bool* built);

  Result<LayerIndexPtr> BuildIndex(int layer,
                                   storage::LayerActivationMatrix* fresh_acts,
                                   PreprocessTimings* timings,
                                   nn::InferenceReceipt* receipt);

  /// CommitSnapshot, timed into `timings->persist_seconds`.
  Status CommitTimed(PreprocessTimings* timings);

  /// The committed manifest, checked against this manager's dataset.
  Result<persist::SnapshotManifest> CommittedManifest() const;

  /// `layer`'s validated segment in `manifest`, or NotFound. An invalid
  /// segment (corrupt, wrong shape, past the dataset) is Discard()ed first.
  Result<LayerIndex> ReadCommitted(const persist::SnapshotManifest& manifest,
                                   int layer);

  /// Loads each committed layer not in memory yet, insert-if-absent (a
  /// concurrent merge may publish a newer copy meanwhile). Returns how many
  /// committed layers are loaded.
  uint32_t LoadCommitted(const persist::SnapshotManifest& manifest);

  /// Warns and fires the invalidation hook; the caller rebuilds `layer`.
  void Discard(int layer, const Status& why);

  /// Computes activations for input ids [base, base + count) of `layer`.
  Result<storage::LayerActivationMatrix> ComputeRows(
      int layer, uint32_t base, uint32_t count, nn::InferenceReceipt* receipt);

  /// Stores `index` as the loaded entry for `layer` (insert or replace).
  LayerIndexPtr Publish(int layer, LayerIndex index);

  /// The per-layer mutex serialising builders of `layer`. Takes build_map_mu_.
  common::Mutex* BuildMutexFor(int layer);

  nn::InferenceEngine* inference_;
  storage::FileStore* store_;
  IndexManagerOptions options_;
  std::function<void(int)> on_index_invalidated_;

  /// Guards loaded_. Readers (queries on indexed layers) take it shared.
  mutable common::SharedMutex mu_;
  std::map<int, LayerIndexPtr> loaded_ GUARDED_BY(mu_);
  SnapshotInfo last_snapshot_ GUARDED_BY(mu_);

  /// Serialises snapshot commits with each other (generation numbers) and
  /// with segment loads (a commit garbage-collects the generation it
  /// replaces). Taken after a build mutex, before mu_.
  common::Mutex commit_mu_;

  /// Guards build_mu_; never held while building.
  common::Mutex build_map_mu_;
  std::map<int, std::unique_ptr<common::Mutex>> build_mu_
      GUARDED_BY(build_map_mu_);
};

}  // namespace core
}  // namespace deepeverest

#endif  // DEEPEVEREST_CORE_INDEX_MANAGER_H_
