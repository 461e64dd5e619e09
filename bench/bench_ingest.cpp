// Ingest bench: durable-ack and apply throughput of persist::IngestQueue
// while a query loop races the apply, then SaveSnapshot's cost and size and
// the warm restart's recovery time. Usage: bench_ingest [out.json]
//
// The bench only measures. The correctness of the same path is ctest's:
// IngestQueueTest.IngestWhileQueryingIsBitIdenticalToFreshScan compares
// every answer with a fresh engine over the prefix it pinned, and
// WarmRestartTest.FirstQueryAfterIngestRunsNoDatasetInference asserts that
// a restart after ingest and a snapshot runs no inference.
//
// Scale knobs:
//   DE_BENCH_INGEST_BASE     base dataset inputs  (default 400)
//   DE_BENCH_INGEST_BATCHES  ingest batches       (default 12)
//   DE_BENCH_INGEST_BATCH    inputs per batch     (default 16)
#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/deepeverest.h"
#include "persist/ingest.h"

namespace deepeverest {
namespace {

constexpr uint64_t kSeed = 29;
constexpr int kDims = 8;

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

void Run(int argc, char** argv) {
  const auto base =
      static_cast<uint32_t>(bench::EnvInt("DE_BENCH_INGEST_BASE", 400));
  const auto batches =
      static_cast<uint32_t>(bench::EnvInt("DE_BENCH_INGEST_BATCHES", 12));
  const auto batch =
      static_cast<uint32_t>(bench::EnvInt("DE_BENCH_INGEST_BATCH", 16));
  const uint32_t total = batches * batch;

  auto model = nn::MakeTinyMlp(kDims, kSeed);
  const core::NeuronGroup group{model->activation_layers()[0], {0, 3, 6}};
  const core::QuerySpec query = core::HighestQuery(group, 8);
  const std::vector<service::IngestInput> extras = MakeExtras(total);

  bench::ScratchDir scratch("bench_ingest");
  auto store = storage::FileStore::Open(scratch.path());
  DE_CHECK(store.ok()) << store.status().ToString();
  data::Dataset dataset = MakeBaseDataset(base);
  auto engine = core::DeepEverest::Create(model.get(), &dataset, &*store,
                                          EngineOptions());
  DE_CHECK(engine.ok()) << engine.status().ToString();
  DE_CHECK((*engine)->ExecuteSpec(query).ok());  // builds the index
  auto queue =
      persist::IngestQueue::Create(engine->get(), &dataset, &*store, {});
  DE_CHECK(queue.ok()) << queue.status().ToString();

  // A query loop races the ingest and its apply.
  std::atomic<bool> applied{false};
  std::thread querier([&] {
    while (!applied.load(std::memory_order_acquire)) {
      auto result = (*engine)->ExecuteSpec(query);
      DE_CHECK(result.ok()) << result.status().ToString();
    }
  });
  Stopwatch ingest;
  for (uint32_t b = 0; b < batches; ++b) {
    const std::vector<service::IngestInput> slice(
        extras.begin() + static_cast<ptrdiff_t>(b) * batch,
        extras.begin() + static_cast<ptrdiff_t>(b + 1) * batch);
    for (;;) {
      auto ack = (*queue)->Ingest(slice);
      if (ack.ok()) break;
      DE_CHECK(ack.status().code() == StatusCode::kResourceExhausted)
          << ack.status().ToString();
      (*queue)->WaitIdle(0.05);  // backpressure: let the applier drain
    }
  }
  const double ack_seconds = ingest.ElapsedSeconds();
  DE_CHECK((*queue)->WaitIdle(120.0)) << "applier did not drain";
  const double apply_seconds = ingest.ElapsedSeconds();
  applied.store(true, std::memory_order_release);
  querier.join();

  Stopwatch snapshot;
  const Status snapped = (*queue)->SaveSnapshot();
  DE_CHECK(snapped.ok()) << snapped.ToString();
  const double snapshot_seconds = snapshot.ElapsedSeconds();
  const int64_t snapshot_bytes = (*queue)->Stats().snapshot_bytes;
  (*queue)->Shutdown();

  // Warm restart over the same store: log replay plus snapshot install.
  data::Dataset restarted = MakeBaseDataset(base);
  auto engine2 = core::DeepEverest::Create(model.get(), &restarted, &*store,
                                           EngineOptions());
  DE_CHECK(engine2.ok()) << engine2.status().ToString();
  Stopwatch restart;
  auto queue2 =
      persist::IngestQueue::Create(engine2->get(), &restarted, &*store, {});
  DE_CHECK(queue2.ok()) << queue2.status().ToString();
  DE_CHECK((*queue2)->WaitIdle(120.0)) << "restart did not settle";
  const double restart_seconds = restart.ElapsedSeconds();
  const uint32_t recovered_layers = (*queue2)->recovered_layers();
  (*queue2)->Shutdown();

  const std::string& system = model->name();
  // AddCell's reference is good until the next AddCell.
  bench::Cell* cell = &bench::AddCell("ingest", system, "ingest", "");
  cell->counters = {{"inputs", 1.0 * total}};
  cell->wall_s = {{"ack", ack_seconds}, {"apply", apply_seconds}};
  cell = &bench::AddCell("ingest", system, "snapshot", "");
  cell->counters = {{"snapshot_bytes", 1.0 * snapshot_bytes}};
  cell->wall_s = {{"snapshot", snapshot_seconds}};
  cell = &bench::AddCell("ingest", system, "restart", "");
  cell->counters = {{"recovered_layers", 1.0 * recovered_layers}};
  cell->wall_s = {{"restart", restart_seconds}};
  bench::PrintCells();
  if (argc > 1) {
    bench::WriteJson(argv[1], {{"base_inputs", 1.0 * base},
                               {"batches", 1.0 * batches},
                               {"batch_size", 1.0 * batch}});
  }
}

}  // namespace
}  // namespace deepeverest

int main(int argc, char** argv) {
  deepeverest::Run(argc, argv);
  return 0;
}
