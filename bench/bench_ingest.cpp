// Ingest bench + correctness harness (pmembench-style: one binary,
// deterministic workload, machine-readable JSON out).
//
// Self-contained like bench_kernels — no Google Benchmark — because the
// committed BENCH_ingest.json snapshot and the CI crash-safety job must be
// reproducible everywhere the library builds. Three arms:
//
//   durable_ingest      inputs/s acknowledged (fsynced log append + publish)
//   concurrent          ingest racing a query loop; every answer observed is
//                       verified BIT-IDENTICAL to a fresh engine built over
//                       exactly the prefix the query pinned ([0, version))
//   snapshot_restart    SaveSnapshot cost/size + warm-restart recovery time
//                       (asserted to run zero dataset inference)
//
// Exit status: 0 on success, 1 on any bit-equality or recovery failure.
//
// Env knobs:
//   DE_BENCH_INGEST_BASE     base dataset inputs            (default 400)
//   DE_BENCH_INGEST_BATCHES  ingest batches                 (default 12)
//   DE_BENCH_INGEST_BATCH    inputs per batch               (default 16)

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/deepeverest.h"
#include "src/data/dataset.h"
#include "src/nn/model_zoo.h"
#include "src/persist/ingest.h"
#include "src/storage/file_store.h"

namespace {

using namespace deepeverest;  // NOLINT: bench brevity

constexpr uint64_t kSeed = 29;
constexpr int kDims = 8;

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v || parsed == 0) {
    std::fprintf(stderr, "bench_ingest: ignoring bad %s='%s'\n", name, v);
    return fallback;
  }
  return static_cast<size_t>(parsed);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

core::DeepEverestOptions EngineOptions() {
  core::DeepEverestOptions options;
  options.batch_size = 32;
  options.num_partitions_override = 8;
  options.mai_ratio_override = 0.05;
  return options;
}

data::Dataset MakeBaseDataset(uint32_t num_inputs) {
  Rng rng(kSeed + 1);
  data::Dataset dataset("bench-ingest", Shape({kDims}));
  for (uint32_t i = 0; i < num_inputs; ++i) {
    Tensor input(Shape({kDims}));
    for (int d = 0; d < kDims; ++d) {
      input[d] = static_cast<float>(rng.NextGaussian());
    }
    dataset.Add(std::move(input), static_cast<int>(i % 4));
  }
  return dataset;
}

std::vector<service::IngestInput> MakeExtras(uint32_t count) {
  Rng rng(kSeed + 1000);
  std::vector<service::IngestInput> extras;
  for (uint32_t i = 0; i < count; ++i) {
    service::IngestInput input;
    input.values.resize(kDims);
    for (float& v : input.values) v = static_cast<float>(rng.NextGaussian());
    input.label = static_cast<int>(i % 4);
    extras.push_back(std::move(input));
  }
  return extras;
}

/// A scoped temp store (removed on destruction).
struct ScopedStore {
  std::string dir;
  std::unique_ptr<storage::FileStore> store;

  ScopedStore() = default;
  ScopedStore(ScopedStore&& other) noexcept
      : dir(std::move(other.dir)), store(std::move(other.store)) {
    other.dir.clear();
  }
  ScopedStore(const ScopedStore&) = delete;
  ScopedStore& operator=(const ScopedStore&) = delete;

  static ScopedStore Make(const char* tag) {
    ScopedStore s;
    auto dir = storage::MakeTempDir(tag);
    if (!dir.ok()) {
      std::fprintf(stderr, "temp dir: %s\n", dir.status().ToString().c_str());
      std::exit(1);
    }
    s.dir = *dir;
    auto store = storage::FileStore::Open(s.dir);
    if (!store.ok()) {
      std::fprintf(stderr, "store: %s\n", store.status().ToString().c_str());
      std::exit(1);
    }
    s.store = std::make_unique<storage::FileStore>(std::move(*store));
    return s;
  }
  ~ScopedStore() {
    store.reset();
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

bool SameEntries(const core::TopKResult& a, const core::TopKResult& b) {
  if (a.entries.size() != b.entries.size()) return false;
  for (size_t i = 0; i < a.entries.size(); ++i) {
    if (a.entries[i].input_id != b.entries[i].input_id) return false;
    if (a.entries[i].value != b.entries[i].value) return false;
  }
  return true;
}

}  // namespace

int main() {
  const uint32_t base = static_cast<uint32_t>(
      EnvSize("DE_BENCH_INGEST_BASE", 400));
  const uint32_t batches = static_cast<uint32_t>(
      EnvSize("DE_BENCH_INGEST_BATCHES", 12));
  const uint32_t batch = static_cast<uint32_t>(
      EnvSize("DE_BENCH_INGEST_BATCH", 16));
  const uint32_t total_extras = batches * batch;

  auto model = nn::MakeTinyMlp(kDims, kSeed);
  const int layer = model->activation_layers()[0];
  const core::NeuronGroup group{layer, {0, 3, 6}};
  const int k = 8;
  const std::vector<service::IngestInput> extras = MakeExtras(total_extras);

  ScopedStore main_store = ScopedStore::Make("bench_ingest");
  data::Dataset dataset = MakeBaseDataset(base);
  auto engine = core::DeepEverest::Create(model.get(), &dataset,
                                          main_store.store.get(),
                                          EngineOptions());
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  // Builds the index.
  auto warmup = (*engine)->ExecuteSpec(core::HighestQuery(group, k));
  if (!warmup.ok()) {
    std::fprintf(stderr, "warmup: %s\n", warmup.status().ToString().c_str());
    return 1;
  }
  auto queue = persist::IngestQueue::Create(engine->get(), &dataset,
                                            main_store.store.get(), {});
  if (!queue.ok()) {
    std::fprintf(stderr, "queue: %s\n", queue.status().ToString().c_str());
    return 1;
  }

  // --- Arm 1+2: concurrent ingest vs query -------------------------------
  // A query loop races the ingest; every result pins a dataset version and
  // is recorded for post-hoc verification against fresh engines.
  std::atomic<bool> ingest_done{false};
  std::vector<std::pair<int64_t, core::TopKResult>> observed;
  std::atomic<int64_t> query_failures{0};
  std::thread querier([&] {
    while (!ingest_done.load(std::memory_order_acquire)) {
      auto result = (*engine)->ExecuteSpec(core::HighestQuery(group, k));
      if (!result.ok()) {
        std::fprintf(stderr, "query during ingest: %s\n",
                     result.status().ToString().c_str());
        query_failures.fetch_add(1);
        return;
      }
      observed.emplace_back(result->stats.dataset_version,
                            std::move(result.value()));
    }
  });

  const double ingest_t0 = NowSeconds();
  for (uint32_t b = 0; b < batches; ++b) {
    std::vector<service::IngestInput> slice(
        extras.begin() + static_cast<ptrdiff_t>(b) * batch,
        extras.begin() + static_cast<ptrdiff_t>(b + 1) * batch);
    for (;;) {
      auto ack = (*queue)->Ingest(slice);
      if (ack.ok()) break;
      if (ack.status().code() == StatusCode::kResourceExhausted) {
        (*queue)->WaitIdle(0.05);  // backpressure: let the applier drain
        continue;
      }
      std::fprintf(stderr, "ingest: %s\n", ack.status().ToString().c_str());
      return 1;
    }
  }
  const double ingest_ack_seconds = NowSeconds() - ingest_t0;
  if (!(*queue)->WaitIdle(120.0)) {
    std::fprintf(stderr, "applier did not drain\n");
    return 1;
  }
  const double ingest_applied_seconds = NowSeconds() - ingest_t0;
  ingest_done.store(true, std::memory_order_release);
  querier.join();
  if (query_failures.load() != 0) return 1;

  // Final answer at the fully applied watermark joins the verification set.
  {
    auto final_result = (*engine)->ExecuteSpec(core::HighestQuery(group, k));
    if (!final_result.ok()) return 1;
    observed.emplace_back(final_result->stats.dataset_version,
                          std::move(final_result.value()));
  }

  // --- Verification: bit-identical at every pinned watermark -------------
  std::map<int64_t, const core::TopKResult*> by_version;
  int mismatches = 0;
  for (const auto& [version, result] : observed) {
    auto [it, inserted] = by_version.emplace(version, &result);
    if (!inserted && !SameEntries(*it->second, result)) {
      std::fprintf(stderr, "two answers at version %lld differ\n",
                   static_cast<long long>(version));
      ++mismatches;
    }
  }
  for (const auto& [version, result] : by_version) {
    ScopedStore ref_store = ScopedStore::Make("bench_ingest_ref");
    data::Dataset ref_dataset = MakeBaseDataset(base);
    for (int64_t i = base; i < version; ++i) {
      const service::IngestInput& extra =
          extras[static_cast<size_t>(i - base)];
      ref_dataset.Add(Tensor(Shape({kDims}), extra.values), extra.label);
    }
    auto ref_engine = core::DeepEverest::Create(
        model.get(), &ref_dataset, ref_store.store.get(), EngineOptions());
    if (!ref_engine.ok()) return 1;
    auto ref = (*ref_engine)->ExecuteSpec(core::HighestQuery(group, k));
    if (!ref.ok()) return 1;
    if (!SameEntries(*ref, *result)) {
      std::fprintf(stderr,
                   "answer at pinned version %lld is NOT bit-identical to a "
                   "fresh scan over that prefix\n",
                   static_cast<long long>(version));
      ++mismatches;
    }
  }

  // --- Arm 3: snapshot + warm restart ------------------------------------
  const double snap_t0 = NowSeconds();
  const Status snapped = (*queue)->SaveSnapshot();
  const double snapshot_seconds = NowSeconds() - snap_t0;
  if (!snapped.ok()) {
    std::fprintf(stderr, "snapshot: %s\n", snapped.ToString().c_str());
    return 1;
  }
  const service::IngestStats stats = (*queue)->Stats();
  (*queue)->Shutdown();

  double restart_seconds = 0.0;
  uint32_t recovered_layers = 0;
  int64_t restart_inference_inputs = -1;
  {
    data::Dataset dataset2 = MakeBaseDataset(base);
    auto engine2 = core::DeepEverest::Create(model.get(), &dataset2,
                                             main_store.store.get(),
                                             EngineOptions());
    if (!engine2.ok()) return 1;
    const double t0 = NowSeconds();
    auto queue2 = persist::IngestQueue::Create(engine2->get(), &dataset2,
                                               main_store.store.get(), {});
    if (!queue2.ok()) {
      std::fprintf(stderr, "restart: %s\n",
                   queue2.status().ToString().c_str());
      return 1;
    }
    (*queue2)->WaitIdle(120.0);
    restart_seconds = NowSeconds() - t0;
    recovered_layers = (*queue2)->recovered_layers();
    restart_inference_inputs = (*engine2)->inference()->stats().inputs_run;
    auto recovered = (*engine2)->ExecuteSpec(core::HighestQuery(group, k));
    if (!recovered.ok() ||
        !SameEntries(*recovered, *by_version.rbegin()->second)) {
      std::fprintf(stderr, "restarted engine answers differently\n");
      ++mismatches;
    }
    (*queue2)->Shutdown();
  }
  if (restart_inference_inputs != 0) {
    std::fprintf(stderr,
                 "warm restart ran inference on %lld inputs (want 0)\n",
                 static_cast<long long>(restart_inference_inputs));
    ++mismatches;
  }

  // --- Report ------------------------------------------------------------
  char date[32] = "unknown";
  const std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof(date), "%Y-%m-%d", std::localtime(&now));
  std::printf("{\n");
  std::printf("  \"bench\": \"bench_ingest\",\n");
  std::printf("  \"date\": \"%s\",\n", date);
  std::printf(
      "  \"workload\": {\"base_inputs\": %u, \"batches\": %u, "
      "\"batch_size\": %u, \"k\": %d, \"neurons\": 3},\n",
      base, batches, batch, k);
  std::printf("  \"results\": [\n");
  std::printf(
      "    {\"arm\": \"durable_ingest\", \"inputs_acked_per_s\": %.6g, "
      "\"ack_seconds\": %.6g},\n",
      total_extras / ingest_ack_seconds, ingest_ack_seconds);
  std::printf(
      "    {\"arm\": \"concurrent\", \"inputs_applied_per_s\": %.6g, "
      "\"apply_seconds\": %.6g, \"queries_during_ingest\": %zu, "
      "\"distinct_watermarks_verified\": %zu, \"bit_identical\": %s},\n",
      total_extras / ingest_applied_seconds, ingest_applied_seconds,
      observed.size() - 1, by_version.size(),
      mismatches == 0 ? "true" : "false");
  std::printf(
      "    {\"arm\": \"snapshot_restart\", \"snapshot_seconds\": %.6g, "
      "\"snapshot_bytes\": %lld, \"restart_seconds\": %.6g, "
      "\"recovered_layers\": %u, \"restart_inference_inputs\": %lld}\n",
      snapshot_seconds, static_cast<long long>(stats.snapshot_bytes),
      restart_seconds, recovered_layers,
      static_cast<long long>(restart_inference_inputs));
  std::printf("  ]\n");
  std::printf("}\n");
  return mismatches == 0 ? 0 : 1;
}
