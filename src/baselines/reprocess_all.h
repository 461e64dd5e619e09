#ifndef DEEPEVEREST_BASELINES_REPROCESS_ALL_H_
#define DEEPEVEREST_BASELINES_REPROCESS_ALL_H_

#include <string>

#include "baselines/layer_scan_engine.h"

namespace deepeverest {
namespace baselines {

/// \brief ReprocessAll baseline (§4.1): no storage, no preprocessing; every
/// query runs DNN inference on the entire dataset (one pass, which also
/// yields a most-similar target's activations). Its query time stands in
/// for *any* method that does not reduce the number of inputs fed to the
/// DNN (Table 1's point).
class ReprocessAll : public LayerScanEngine {
 public:
  explicit ReprocessAll(nn::InferenceEngine* inference)
      : LayerScanEngine(inference) {}

  std::string name() const override { return "ReprocessAll"; }
  Result<uint64_t> StorageBytes() const override { return uint64_t{0}; }

 private:
  Result<storage::LayerActivationMatrix> GetLayer(
      int layer, nn::InferenceReceipt* receipt) override {
    return inference_->ComputeLayerMatrix(
        layer, 0, inference_->dataset().size(), receipt);
  }
};

}  // namespace baselines
}  // namespace deepeverest

#endif  // DEEPEVEREST_BASELINES_REPROCESS_ALL_H_
