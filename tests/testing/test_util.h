#ifndef DEEPEVEREST_TESTS_TESTING_TEST_UTIL_H_
#define DEEPEVEREST_TESTS_TESTING_TEST_UTIL_H_

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/nta.h"
#include "core/query.h"
#include "core/query_spec.h"
#include "data/dataset.h"
#include "nn/inference.h"
#include "nn/model_zoo.h"
#include "persist/snapshot.h"
#include "storage/file_store.h"

namespace deepeverest {
namespace testing_util {

/// gtest helpers for Status/Result.
#define DE_ASSERT_OK(expr)                                       \
  do {                                                           \
    const ::deepeverest::Status _st = (expr);                    \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                     \
  } while (false)

#define DE_EXPECT_OK(expr)                                       \
  do {                                                           \
    const ::deepeverest::Status _st = (expr);                    \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                     \
  } while (false)

/// A dataset of random rank-1 vectors, for fast MLP-based tests.
inline data::Dataset MakeVectorDataset(uint32_t num_inputs, int dims,
                                       uint64_t seed) {
  Rng rng(seed);
  data::Dataset dataset("vec" + std::to_string(num_inputs), Shape({dims}));
  for (uint32_t i = 0; i < num_inputs; ++i) {
    Tensor input(Shape({dims}));
    for (int d = 0; d < dims; ++d) {
      input[d] = static_cast<float>(rng.NextGaussian());
    }
    dataset.Add(std::move(input), static_cast<int>(i % 4));
  }
  return dataset;
}

/// A small, fast system-under-test: TinyMlp over a random vector dataset.
struct TinySystem {
  nn::ModelPtr model;
  data::Dataset dataset;
  std::unique_ptr<nn::InferenceEngine> engine;

  TinySystem(uint32_t num_inputs, uint64_t seed, int batch_size = 16)
      : model(nn::MakeTinyMlp(8, seed)),
        dataset(MakeVectorDataset(num_inputs, 8, seed + 1)),
        engine(std::make_unique<nn::InferenceEngine>(model.get(), &dataset,
                                                     batch_size)) {}
};

/// Begin + Run of one NTA query (target encoding as in NtaEngine::Begin).
/// A null `ctx` runs with a default context.
inline Result<core::TopKResult> RunNta(core::NtaEngine* nta,
                                       const core::NeuronGroup& group,
                                       core::QuerySpec::Kind kind,
                                       int64_t target_id,
                                       const std::vector<float>& target_acts,
                                       const core::NtaOptions& options,
                                       core::QueryContext* ctx = nullptr) {
  core::QueryContext local_ctx;
  if (ctx == nullptr) ctx = &local_ctx;
  DE_ASSIGN_OR_RETURN(
      std::unique_ptr<core::QueryExecution> execution,
      nta->Begin(group, kind, target_id, target_acts, options, ctx));
  return execution->Run();
}

/// RunNta for a most-similar query against dataset input `target_id`.
inline Result<core::TopKResult> RunNtaSimilar(
    core::NtaEngine* nta, const core::NeuronGroup& group, int64_t target_id,
    const core::NtaOptions& options, core::QueryContext* ctx = nullptr) {
  return RunNta(nta, group, core::QuerySpec::Kind::kMostSimilar, target_id,
                {}, options, ctx);
}

/// The brute-force reference answers: every input's activations at the
/// group's layer, then the fresh scan over that matrix.
inline Result<core::TopKResult> BruteForceMostSimilar(
    nn::InferenceEngine* inference, const core::NeuronGroup& group,
    const std::vector<float>& target_acts, int k,
    const core::DistancePtr& dist, bool exclude_target, uint32_t target_id) {
  DE_ASSIGN_OR_RETURN(const storage::LayerActivationMatrix matrix,
                      inference->ComputeLayerMatrix(
                          group.layer, 0, inference->dataset().size()));
  return core::ScanMostSimilar(matrix, group.neurons, target_acts, k, dist,
                               exclude_target, target_id);
}

inline Result<core::TopKResult> BruteForceHighest(
    nn::InferenceEngine* inference, const core::NeuronGroup& group, int k,
    const core::DistancePtr& dist) {
  DE_ASSIGN_OR_RETURN(const storage::LayerActivationMatrix matrix,
                      inference->ComputeLayerMatrix(
                          group.layer, 0, inference->dataset().size()));
  return core::ScanHighest(matrix, group.neurons, k, dist);
}

/// A scoped temp directory removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    auto dir = storage::MakeTempDir(tag);
    EXPECT_TRUE(dir.ok()) << dir.status().ToString();
    path_ = dir.ok() ? dir.value() : std::string("/tmp/de-test-fallback");
  }
  ~TempDir() {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Asserts `actual` is a *valid* top-k answer relative to `expected`
/// (brute-force oracle): values must match position-wise, and every input
/// whose value is strictly better than the k-th value must be present (ties
/// at the boundary may legitimately differ).
inline void ExpectValidTopK(const core::TopKResult& expected,
                            const core::TopKResult& actual,
                            bool smaller_is_better,
                            double tolerance = 1e-6) {
  ASSERT_EQ(expected.entries.size(), actual.entries.size());
  const size_t k = expected.entries.size();
  for (size_t i = 0; i < k; ++i) {
    EXPECT_NEAR(expected.entries[i].value, actual.entries[i].value, tolerance)
        << "rank " << i;
  }
  if (k == 0) return;
  const double kth = expected.entries.back().value;
  // Every strictly-better oracle entry must appear in `actual`.
  for (const core::ResultEntry& e : expected.entries) {
    const bool strictly_better = smaller_is_better
                                     ? e.value < kth - tolerance
                                     : e.value > kth + tolerance;
    if (!strictly_better) continue;
    bool found = false;
    for (const core::ResultEntry& a : actual.entries) {
      if (a.input_id == e.input_id) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "input " << e.input_id << " (value " << e.value
                       << ") missing from result";
  }
}

/// File path of `layer`'s segment in the model's committed snapshot.
inline std::string SegmentPath(storage::FileStore* store,
                               const std::string& model, int layer) {
  auto manifest = persist::ReadManifest(store, model);
  EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
  if (!manifest.ok()) return "";
  for (const persist::SegmentInfo& seg : manifest->segments) {
    if (seg.layer == layer) return store->root() + "/" + seg.key;
  }
  ADD_FAILURE() << "layer " << layer << " is not committed";
  return "";
}

/// Flips one bit of the byte at `offset` in the file at `path`.
inline void FlipByteAt(const std::string& path, size_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x10);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

}  // namespace testing_util
}  // namespace deepeverest

#endif  // DEEPEVEREST_TESTS_TESTING_TEST_UTIL_H_
