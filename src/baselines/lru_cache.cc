#include "baselines/lru_cache.h"

namespace deepeverest {
namespace baselines {

Result<storage::LayerActivationMatrix> LruCacheEngine::GetLayer(
    int layer, nn::InferenceReceipt* receipt) {
  const std::string& model_name = inference_->model().name();
  common::MutexLock lock(&mu_);
  auto it = by_layer_.find(layer);
  if (it != by_layer_.end()) {
    ++hits_;
    recency_.erase(it->second);
    recency_.push_front(layer);
    it->second = recency_.begin();
    return activations_.Load(model_name, layer);
  }

  ++misses_;
  DE_ASSIGN_OR_RETURN(storage::LayerActivationMatrix matrix,
                      ComputeLayerMatrix(inference_, layer, receipt));
  // Persist to the disk cache, then evict least-recently-used layers until
  // the budget holds again. The byte count recorded here is the one
  // subtracted at eviction.
  DE_RETURN_NOT_OK(activations_.Save(model_name, layer, matrix));
  const uint64_t bytes = storage::ActivationStore::PersistedBytes(
      matrix.num_inputs, matrix.num_neurons);
  cached_bytes_ += bytes;
  bytes_by_layer_[layer] = bytes;
  recency_.push_front(layer);
  by_layer_[layer] = recency_.begin();
  DE_RETURN_NOT_OK(EvictUntilWithinBudgetLocked());
  return matrix;
}

Status LruCacheEngine::EvictLocked(int layer) {
  auto it = by_layer_.find(layer);
  DE_CHECK(it != by_layer_.end());
  recency_.erase(it->second);
  by_layer_.erase(it);
  auto bytes_it = bytes_by_layer_.find(layer);
  DE_CHECK(bytes_it != bytes_by_layer_.end());
  DE_CHECK(cached_bytes_ >= bytes_it->second);
  cached_bytes_ -= bytes_it->second;
  bytes_by_layer_.erase(bytes_it);
  return activations_.Remove(inference_->model().name(), layer);
}

Status LruCacheEngine::EvictUntilWithinBudgetLocked() {
  while (cached_bytes_ > budget_bytes_ && recency_.size() > 1) {
    DE_RETURN_NOT_OK(EvictLocked(recency_.back()));
  }
  // A single layer larger than the whole budget is still evicted: the
  // cache cannot hold it.
  if (cached_bytes_ > budget_bytes_ && recency_.size() == 1) {
    DE_RETURN_NOT_OK(EvictLocked(recency_.back()));
  }
  return Status::OK();
}

}  // namespace baselines
}  // namespace deepeverest
