// Answer verification: every answer a timed window produced is compared
// bit-for-bit with a fresh activation scan (core::ScanHighest /
// core::ScanMostSimilar) over exactly the dataset prefix the answer reports
// in `dataset_version`. The scan runs after the window, outside every
// metric, on activations computed by a fresh InferenceEngine.
#ifndef PERFBENCH_VERIFY_H_
#define PERFBENCH_VERIFY_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/query.h"
#include "core/query_spec.h"
#include "data/dataset.h"
#include "nn/model.h"
#include "storage/activation_store.h"

namespace perfbench {

/// One answer to check: the index of its spec in the workload's plan, the
/// answer's entries, and the dataset version it was pinned at.
struct Answer {
  uint32_t spec = 0;
  int64_t dataset_version = 0;
  std::vector<deepeverest::core::ResultEntry> entries;
};

class Verifier {
 public:
  /// Computes full activation matrices for `layers` over every input the
  /// dataset holds now.
  static deepeverest::Result<Verifier> Build(
      const deepeverest::nn::Model* model,
      const deepeverest::data::Dataset* dataset, const std::vector<int>& layers,
      int batch_size);

  /// Verifier over given matrices (the self-test injects its own).
  explicit Verifier(std::map<int, deepeverest::storage::LayerActivationMatrix>
                        matrices)
      : matrices_(std::move(matrices)) {}

  /// True when `answer` is bit-identical (ids and value bits, in order) to
  /// the fresh scan of `spec` over inputs [0, answer.dataset_version).
  /// Otherwise false, with the reason in `*why`.
  bool Check(const deepeverest::core::QuerySpec& spec, const Answer& answer,
             std::string* why);

  /// Checks every answer; returns how many failed and describes the first
  /// few failures in `*errors`.
  int64_t CheckAll(const std::vector<deepeverest::core::QuerySpec>& plan,
                   const std::vector<Answer>& answers,
                   std::vector<std::string>* errors);

 private:
  const std::vector<deepeverest::core::ResultEntry>* Reference(
      uint32_t spec_index, const deepeverest::core::QuerySpec& spec,
      int64_t version, std::string* why);

  std::map<int, deepeverest::storage::LayerActivationMatrix> matrices_;
  /// Fresh-scan answers memoised per (spec index, dataset version).
  std::map<std::pair<uint32_t, int64_t>,
           std::vector<deepeverest::core::ResultEntry>>
      memo_;
};

}  // namespace perfbench

#endif  // PERFBENCH_VERIFY_H_
