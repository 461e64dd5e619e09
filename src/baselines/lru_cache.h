#ifndef DEEPEVEREST_BASELINES_LRU_CACHE_H_
#define DEEPEVEREST_BASELINES_LRU_CACHE_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "baselines/layer_scan_engine.h"
#include "common/mutex.h"
#include "storage/file_store.h"

namespace deepeverest {
namespace baselines {

/// \brief LRU Cache baseline (§4.1): a fixed-budget disk cache of layer
/// activations with least-recently-used layer eviction. Queries hit the
/// cache like PreprocessAll or miss like ReprocessAll; after a miss the
/// queried layer's activations are persisted to the cache, unless the layer
/// alone is larger than the whole budget (it is then never admitted).
///
/// Byte accounting mirrors IqaCache: the bytes recorded when a layer enters
/// the cache are exactly the bytes subtracted when it leaves (kept in
/// `bytes_by_layer_`), so `cached_bytes_` can never drift from the sum of
/// resident layers — regardless of model/dataset geometry changes between
/// insert and evict, or of a layer being re-admitted after eviction.
///
/// Thread-safety: all public methods are safe to call concurrently (one
/// mutex serialises cache bookkeeping), so the engine can serve as a
/// fallback cache under the concurrent query service. Concurrent misses of
/// *different* layers serialise on the mutex — acceptable for a baseline.
class LruCacheEngine : public LayerScanEngine {
 public:
  /// Does not take ownership.
  LruCacheEngine(nn::InferenceEngine* inference, storage::FileStore* store,
                 uint64_t budget_bytes)
      : LayerScanEngine(inference),
        activations_(store),
        budget_bytes_(budget_bytes) {}

  std::string name() const override { return "LRU Cache"; }

  Result<uint64_t> StorageBytes() const override {
    common::MutexLock lock(&mu_);
    return cached_bytes_;
  }

  bool IsCached(int layer) const {
    common::MutexLock lock(&mu_);
    return by_layer_.count(layer) != 0;
  }
  int64_t hits() const {
    common::MutexLock lock(&mu_);
    return hits_;
  }
  int64_t misses() const {
    common::MutexLock lock(&mu_);
    return misses_;
  }

 private:
  /// Returns the layer's activation matrix, via the cache or recomputation,
  /// then updates recency/evictions. A miss's inference cost is charged to
  /// `receipt` (exact per-caller attribution; hits add nothing).
  Result<storage::LayerActivationMatrix> GetLayer(
      int layer, nn::InferenceReceipt* receipt) override;

  /// Drops `layer` from cache state and disk.
  Status EvictLocked(int layer) REQUIRES(mu_);

  Status EvictUntilWithinBudgetLocked() REQUIRES(mu_);

  storage::ActivationStore activations_;
  uint64_t budget_bytes_;

  mutable common::Mutex mu_;
  uint64_t cached_bytes_ GUARDED_BY(mu_) = 0;  // == sum of bytes_by_layer_
  int64_t hits_ GUARDED_BY(mu_) = 0;
  int64_t misses_ GUARDED_BY(mu_) = 0;
  /// Front = most recently used layer.
  std::list<int> recency_ GUARDED_BY(mu_);
  std::unordered_map<int, std::list<int>::iterator> by_layer_
      GUARDED_BY(mu_);
  std::unordered_map<int, uint64_t> bytes_by_layer_ GUARDED_BY(mu_);
};

}  // namespace baselines
}  // namespace deepeverest

#endif  // DEEPEVEREST_BASELINES_LRU_CACHE_H_
