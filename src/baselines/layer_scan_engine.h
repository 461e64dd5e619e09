#ifndef DEEPEVEREST_BASELINES_LAYER_SCAN_ENGINE_H_
#define DEEPEVEREST_BASELINES_LAYER_SCAN_ENGINE_H_

#include "common/result.h"
#include "core/query_engine.h"
#include "nn/inference.h"
#include "storage/activation_store.h"

namespace deepeverest {
namespace baselines {

/// \brief The shared shape of the baseline strategies of paper §4.1: each
/// answers a query by getting the queried layer's full activation matrix
/// (recomputed, loaded from disk, or a cache hit or miss) and scanning it
/// with core::ScanSpec. A strategy supplies only GetLayer.
class LayerScanEngine : public core::QueryEngine {
 public:
  /// Does not take ownership; `inference` must outlive this object.
  explicit LayerScanEngine(nn::InferenceEngine* inference)
      : inference_(inference) {}

  /// Validates `spec` against the model and dataset, gets its layer, and
  /// scans it. Baselines answer explicit neuron groups only: a derived
  /// `TOP m NEURONS` group is InvalidArgument.
  Result<core::TopKResult> ExecuteSpec(
      const core::QuerySpec& spec, core::QueryContext* ctx = nullptr) final;

 protected:
  /// Returns `layer`'s activation matrix (a validated layer index),
  /// charging any inference it runs to `receipt`.
  virtual Result<storage::LayerActivationMatrix> GetLayer(
      int layer, nn::InferenceReceipt* receipt) = 0;

  nn::InferenceEngine* inference_;
};

}  // namespace baselines
}  // namespace deepeverest

#endif  // DEEPEVEREST_BASELINES_LAYER_SCAN_ENGINE_H_
