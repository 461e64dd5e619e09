#include "verify.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "core/distance.h"
#include "core/nta.h"
#include "nn/inference.h"

namespace perfbench {

namespace de = deepeverest;

de::Result<Verifier> Verifier::Build(const de::nn::Model* model,
                                     const de::data::Dataset* dataset,
                                     const std::vector<int>& layers,
                                     int batch_size) {
  // A fresh engine: nothing the measured system cached or indexed is used.
  de::nn::InferenceEngine engine(model, dataset, batch_size);
  const uint32_t n = dataset->size();
  std::map<int, de::storage::LayerActivationMatrix> matrices;
  constexpr uint32_t kChunk = 256;
  for (int layer : layers) {
    de::storage::LayerActivationMatrix matrix =
        de::storage::LayerActivationMatrix::Make(
            n, static_cast<uint64_t>(model->NeuronCount(layer)));
    for (uint32_t base = 0; base < n; base += kChunk) {
      std::vector<uint32_t> ids(std::min(kChunk, n - base));
      std::iota(ids.begin(), ids.end(), base);
      std::vector<std::vector<float>> rows;
      DE_RETURN_NOT_OK(engine.ComputeLayer(ids, layer, &rows));
      for (size_t i = 0; i < ids.size(); ++i) {
        std::copy(rows[i].begin(), rows[i].end(), matrix.MutableRow(ids[i]));
      }
    }
    matrices.emplace(layer, std::move(matrix));
  }
  return Verifier(std::move(matrices));
}

const std::vector<de::core::ResultEntry>* Verifier::Reference(
    uint32_t spec_index, const de::core::QuerySpec& spec, int64_t version,
    std::string* why) {
  const auto key = std::make_pair(spec_index, version);
  auto memo = memo_.find(key);
  if (memo != memo_.end()) return &memo->second;

  auto it = matrices_.find(spec.layer);
  if (it == matrices_.end()) {
    *why = "no fresh activations for layer " + std::to_string(spec.layer);
    return nullptr;
  }
  de::storage::LayerActivationMatrix& matrix = it->second;
  if (version <= 0 || version > static_cast<int64_t>(matrix.num_inputs)) {
    *why = "answer reports dataset_version " + std::to_string(version) +
           " outside [1, " + std::to_string(matrix.num_inputs) + "]";
    return nullptr;
  }
  auto dist = de::core::MakeDistance(spec.distance);
  if (!dist.ok()) {
    *why = dist.status().ToString();
    return nullptr;
  }
  // Scan exactly the pinned prefix: the scan reads rows [0, num_inputs).
  const uint32_t full = matrix.num_inputs;
  matrix.num_inputs = static_cast<uint32_t>(version);
  de::core::TopKResult fresh;
  if (spec.kind == de::core::QuerySpec::Kind::kHighest) {
    fresh = de::core::ScanHighest(matrix, spec.neurons, spec.k, *dist);
  } else {
    const uint32_t target = static_cast<uint32_t>(spec.target_id);
    std::vector<float> target_acts(spec.neurons.size());
    for (size_t i = 0; i < spec.neurons.size(); ++i) {
      target_acts[i] = matrix.At(target, static_cast<uint64_t>(spec.neurons[i]));
    }
    fresh = de::core::ScanMostSimilar(matrix, spec.neurons, target_acts, spec.k,
                                      *dist, /*exclude_target=*/true, target);
  }
  matrix.num_inputs = full;
  return &memo_.emplace(key, std::move(fresh.entries)).first->second;
}

bool Verifier::Check(const de::core::QuerySpec& spec, const Answer& answer,
                     std::string* why) {
  const std::vector<de::core::ResultEntry>* expected =
      Reference(answer.spec, spec, answer.dataset_version, why);
  if (expected == nullptr) return false;
  if (expected->size() != answer.entries.size()) {
    *why = "answer has " + std::to_string(answer.entries.size()) +
           " entries, the fresh scan " + std::to_string(expected->size());
    return false;
  }
  for (size_t i = 0; i < expected->size(); ++i) {
    const de::core::ResultEntry& want = (*expected)[i];
    const de::core::ResultEntry& got = answer.entries[i];
    if (want.input_id != got.input_id ||
        std::memcmp(&want.value, &got.value, sizeof(double)) != 0) {
      *why = "entry " + std::to_string(i) + ": got (" +
             std::to_string(got.input_id) + ", " + std::to_string(got.value) +
             "), fresh scan (" + std::to_string(want.input_id) + ", " +
             std::to_string(want.value) + ")";
      return false;
    }
  }
  return true;
}

int64_t Verifier::CheckAll(const std::vector<de::core::QuerySpec>& plan,
                           const std::vector<Answer>& answers,
                           std::vector<std::string>* errors) {
  int64_t failed = 0;
  for (const Answer& answer : answers) {
    std::string why;
    if (answer.spec >= plan.size()) {
      why = "answer for unknown spec " + std::to_string(answer.spec);
    } else if (Check(plan[answer.spec], answer, &why)) {
      continue;
    }
    ++failed;
    if (errors->size() < 5) {
      errors->push_back("answer to spec " + std::to_string(answer.spec) +
                        " (" +
                        (answer.spec < plan.size()
                             ? plan[answer.spec].ToString()
                             : std::string("?")) +
                        ") at dataset_version " +
                        std::to_string(answer.dataset_version) +
                        " differs from a fresh scan: " + why);
    }
  }
  return failed;
}

}  // namespace perfbench
