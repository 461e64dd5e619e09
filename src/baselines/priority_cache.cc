#include "baselines/priority_cache.h"

#include <algorithm>

namespace deepeverest {
namespace baselines {

Status PriorityCacheEngine::Preprocess() {
  if (preprocessed_) return Status::OK();
  const nn::Model& model = inference_->model();
  const uint32_t num_inputs = inference_->dataset().size();

  // Cost model: for each layer, the benefit of materialising it is the
  // query time saved (recomputation time under the GPU cost model minus
  // load time at the modelled disk throughput) per byte of storage.
  struct Candidate {
    int layer;
    uint64_t bytes;
    double benefit_per_byte;
  };
  std::vector<Candidate> candidates;
  for (int layer = 0; layer < model.num_layers(); ++layer) {
    const uint64_t bytes = storage::ActivationStore::PersistedBytes(
        num_inputs, static_cast<uint64_t>(model.NeuronCount(layer)));
    const double recompute_seconds = inference_->cost_model().BatchSeconds(
        num_inputs, inference_->batch_size(), model.CumulativeMacs(layer));
    const double load_seconds =
        static_cast<double>(bytes) / disk_read_bytes_per_second_;
    const double benefit = recompute_seconds - load_seconds;
    candidates.push_back(
        Candidate{layer, bytes, benefit / static_cast<double>(bytes)});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.benefit_per_byte != b.benefit_per_byte) {
                return a.benefit_per_byte > b.benefit_per_byte;
              }
              return a.layer < b.layer;
            });
  uint64_t used = 0;
  for (const Candidate& c : candidates) {
    if (c.benefit_per_byte <= 0.0) continue;
    if (used + c.bytes > budget_bytes_) continue;
    used += c.bytes;
    chosen_layers_.push_back(c.layer);
  }
  std::sort(chosen_layers_.begin(), chosen_layers_.end());

  // One inference pass over the dataset materialising the chosen layers.
  if (!chosen_layers_.empty()) {
    std::vector<storage::LayerActivationMatrix> matrices;
    DE_RETURN_NOT_OK(inference_->ComputeAllLayers(chosen_layers_, &matrices));
    for (size_t i = 0; i < chosen_layers_.size(); ++i) {
      DE_RETURN_NOT_OK(activations_.Save(model.name(), chosen_layers_[i],
                                         matrices[i], /*sync=*/true));
      stored_.insert(chosen_layers_[i]);
      stored_bytes_ += storage::ActivationStore::PersistedBytes(
          matrices[i].num_inputs, matrices[i].num_neurons);
    }
  }
  preprocessed_ = true;
  return Status::OK();
}

Result<storage::LayerActivationMatrix> PriorityCacheEngine::GetLayer(
    int layer, nn::InferenceReceipt* receipt) {
  if (stored_.count(layer) != 0) {
    return activations_.Load(inference_->model().name(), layer);
  }
  return inference_->ComputeLayerMatrix(layer, 0, inference_->dataset().size(),
                                        receipt);
}

}  // namespace baselines
}  // namespace deepeverest
