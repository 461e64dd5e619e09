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
  DE_ASSIGN_OR_RETURN(
      storage::LayerActivationMatrix matrix,
      inference_->ComputeLayerMatrix(layer, 0, inference_->dataset().size(),
                                     receipt));
  const uint64_t bytes = storage::ActivationStore::PersistedBytes(
      matrix.num_inputs, matrix.num_neurons);
  // A layer larger than the whole budget is not admitted: caching it would
  // evict every other layer and then the layer itself.
  if (bytes > budget_bytes_) return matrix;
  // Persist to the disk cache, then evict least-recently-used layers until
  // the budget holds again. The byte count recorded here is the one
  // subtracted at eviction.
  DE_RETURN_NOT_OK(activations_.Save(model_name, layer, matrix));
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
  // Every admitted layer fits the budget, so the newest one is never
  // evicted here.
  while (cached_bytes_ > budget_bytes_) {
    DE_RETURN_NOT_OK(EvictLocked(recency_.back()));
  }
  return Status::OK();
}

}  // namespace baselines
}  // namespace deepeverest
