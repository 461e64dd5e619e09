#ifndef DEEPEVEREST_BENCH_UTIL_DEMO_SYSTEM_H_
#define DEEPEVEREST_BENCH_UTIL_DEMO_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/deepeverest.h"
#include "core/query_spec.h"
#include "data/dataset.h"
#include "nn/model_zoo.h"
#include "storage/file_store.h"

namespace deepeverest {
namespace bench_util {

/// \brief Options for the deterministic demo system shared by the network
/// example server, the e2e client driver, and the network tests.
struct DemoSystemOptions {
  /// Everything (model weights, dataset) derives from this seed, so two
  /// processes building the same options hold *identical* engines — the
  /// property the server-e2e bit-equality check rests on: the client builds
  /// its own copy and compares HTTP results against local sequential runs.
  uint64_t seed = 7;
  uint32_t num_inputs = 200;
  int input_units = 8;
  int batch_size = 8;
  /// Pre-build every index (warm serving start). The NTA path — the one
  /// that emits streaming progress — is only taken on indexed layers.
  bool preprocess = true;
  /// When > 0, enables the simulated device latency model scaled by this
  /// factor, giving queries realistic multi-millisecond execution so
  /// streaming/cancellation races are exercisable.
  double device_latency_scale = 0.0;
  /// When non-empty, the FileStore opens over this directory instead of a
  /// fresh temp dir, and the directory survives destruction — the warm
  /// restart / crash-recovery path: a second process over the same
  /// directory recovers the first one's snapshots and ingest log.
  std::string store_dir;
};

/// \brief A self-contained engine over the TinyMlp model and a synthetic
/// vector dataset, with its own temp FileStore (removed on destruction).
/// Heap-allocated and immovable: the engine holds pointers into the other
/// members.
class DemoSystem {
 public:
  static Result<std::unique_ptr<DemoSystem>> Make(
      const DemoSystemOptions& options);

  ~DemoSystem();

  DemoSystem(const DemoSystem&) = delete;
  DemoSystem& operator=(const DemoSystem&) = delete;

  core::DeepEverest* engine() { return engine_.get(); }
  const nn::Model* model() const { return model_.get(); }
  const data::Dataset* dataset() const { return &dataset_; }
  /// Mutable handle for the ingest pipeline (appends only; the base inputs
  /// stay deterministic).
  data::Dataset* mutable_dataset() { return &dataset_; }
  storage::FileStore* store() { return store_.get(); }
  /// The wire-protocol model name clients address queries to.
  const std::string& model_name() const { return model_->name(); }

 private:
  DemoSystem(nn::ModelPtr model, data::Dataset dataset);

  nn::ModelPtr model_;
  data::Dataset dataset_;
  std::string store_dir_;
  bool owns_store_dir_ = true;
  std::unique_ptr<storage::FileStore> store_;
  std::unique_ptr<core::DeepEverest> engine_;
};

/// \brief The deterministic mixed workload shared by the e2e client and
/// the network tests: both query kinds, interactive and batch QoS, several
/// sessions, cycling across the model's activation layers. One definition,
/// so the two drivers can never silently test different request shapes.
/// (Wire encoding is core::QuerySpecJson — the one shared codec.)
std::vector<core::QuerySpec> MakeMixedWorkload(const nn::Model& model,
                                               int count);

/// \brief The two-model demo deployment shared by example_query_server and
/// example_query_client: registry names and the second model's seed
/// derivation live here so the server and the client's local twins can
/// never drift. Model A serves the base --seed; model B a derived seed
/// (different weights AND dataset, so routing mistakes change answers).
inline constexpr const char kDemoModelA[] = "demo-a";
inline constexpr const char kDemoModelB[] = "demo-b";
inline constexpr uint64_t DemoModelBSeed(uint64_t seed) {
  return seed * 2654435761ull + 101;
}

}  // namespace bench_util
}  // namespace deepeverest

#endif  // DEEPEVEREST_BENCH_UTIL_DEMO_SYSTEM_H_
