#ifndef DEEPEVEREST_BASELINES_PREPROCESS_ALL_H_
#define DEEPEVEREST_BASELINES_PREPROCESS_ALL_H_

#include <string>

#include "baselines/layer_scan_engine.h"
#include "storage/file_store.h"

namespace deepeverest {
namespace baselines {

/// \brief PreprocessAll baseline (§4.1): materialises every layer's
/// activations for every input up front; queries load the stored layer and
/// scan it. Fastest queries, maximal storage (the "full materialisation"
/// all budgets are measured against).
class PreprocessAll : public LayerScanEngine {
 public:
  /// Does not take ownership; both must outlive this object.
  PreprocessAll(nn::InferenceEngine* inference, storage::FileStore* store)
      : LayerScanEngine(inference), store_(store), activations_(store) {}

  std::string name() const override { return "PreprocessAll"; }

  /// One full inference pass over the dataset; persists one file per layer.
  Status Preprocess();

  Result<uint64_t> StorageBytes() const override {
    return store_->TotalBytes();
  }

  /// Wall-clock seconds spent in the preprocessing pass, split as in the
  /// paper's Figure 10 (inference vs persistence).
  double preprocess_inference_seconds() const {
    return preprocess_inference_seconds_;
  }
  double preprocess_persist_seconds() const {
    return preprocess_persist_seconds_;
  }

 private:
  /// Loads the stored layer; queries never run inference.
  Result<storage::LayerActivationMatrix> GetLayer(
      int layer, nn::InferenceReceipt* receipt) override;

  storage::FileStore* store_;
  storage::ActivationStore activations_;
  bool preprocessed_ = false;
  double preprocess_inference_seconds_ = 0.0;
  double preprocess_persist_seconds_ = 0.0;
};

}  // namespace baselines
}  // namespace deepeverest

#endif  // DEEPEVEREST_BASELINES_PREPROCESS_ALL_H_
