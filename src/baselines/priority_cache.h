#ifndef DEEPEVEREST_BASELINES_PRIORITY_CACHE_H_
#define DEEPEVEREST_BASELINES_PRIORITY_CACHE_H_

#include <set>
#include <string>
#include <vector>

#include "baselines/layer_scan_engine.h"
#include "storage/file_store.h"

namespace deepeverest {
namespace baselines {

/// \brief Priority Cache baseline (§4.1), adapted from MISTIQUE's storage
/// cost model: assuming every layer is queried equally often, rank layers by
/// query time saved per GB stored — (recompute time − load time) / size —
/// and greedily materialise the best ones under the budget during
/// preprocessing. Queries on materialised layers run like PreprocessAll;
/// everything else runs like ReprocessAll.
class PriorityCacheEngine : public LayerScanEngine {
 public:
  /// `disk_read_bytes_per_second` models load time in the cost model (the
  /// actual loads are real file reads).
  PriorityCacheEngine(nn::InferenceEngine* inference,
                      storage::FileStore* store, uint64_t budget_bytes,
                      double disk_read_bytes_per_second = 500e6)
      : LayerScanEngine(inference),
        activations_(store),
        budget_bytes_(budget_bytes),
        disk_read_bytes_per_second_(disk_read_bytes_per_second) {}

  std::string name() const override { return "Priority Cache"; }

  /// Ranks layers with the cost model and materialises the chosen set.
  Status Preprocess();

  Result<uint64_t> StorageBytes() const override { return stored_bytes_; }

  const std::vector<int>& chosen_layers() const { return chosen_layers_; }
  bool IsStored(int layer) const { return stored_.count(layer) != 0; }

 private:
  /// Loads a stored layer (free) or recomputes it, charging `receipt`.
  Result<storage::LayerActivationMatrix> GetLayer(
      int layer, nn::InferenceReceipt* receipt) override;

  storage::ActivationStore activations_;
  uint64_t budget_bytes_;
  double disk_read_bytes_per_second_;
  uint64_t stored_bytes_ = 0;
  bool preprocessed_ = false;
  std::vector<int> chosen_layers_;
  std::set<int> stored_;
};

}  // namespace baselines
}  // namespace deepeverest

#endif  // DEEPEVEREST_BASELINES_PRIORITY_CACHE_H_
