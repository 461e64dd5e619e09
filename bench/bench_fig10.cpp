// Reproduces **Figure 10**: cumulative preprocessing times, layer by layer
// (first to last), for PreprocessAll vs DeepEverest in the extreme case
// where every layer is indexed. Components: DNN inference, index
// computation (DeepEverest only), and force-synced data persistence.
//
// Expected shape: the two methods' totals are comparable — DeepEverest's
// index computation + small writes cost about as much as PreprocessAll's
// large writes.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/bench_common.h"
#include "bench_util/report.h"
#include "common/stopwatch.h"
#include "core/deepeverest.h"
#include "storage/activation_store.h"

namespace deepeverest {
namespace {

struct Cumulative {
  std::vector<double> inference;
  std::vector<double> index;
  std::vector<double> persist;
};

struct SystemResult {
  std::string system;
  Cumulative deepeverest;
  Cumulative preprocess_all;
};

std::vector<SystemResult>& Results() {
  static auto& results = *new std::vector<SystemResult>();
  return results;
}

void RunSystem(const bench::System& system) {
  SystemResult result;
  result.system = system.name;

  // --- DeepEverest: per-layer incremental builds, front to back. Each
  // build's persist time is its snapshot commit, fsynced like every commit
  // (the paper force-writes when timing).
  {
    bench::ScratchDir scratch("fig10-de");
    auto store = storage::FileStore::Open(scratch.path());
    DE_CHECK(store.ok());
    core::DeepEverestOptions options;
    options.batch_size = system.batch_size;
    options.storage_budget_fraction = 0.2;
    auto de = core::DeepEverest::Create(system.model.get(),
                                        system.dataset.get(), &store.value(),
                                        options);
    DE_CHECK(de.ok());
    double inference = 0.0, index = 0.0, persist = 0.0;
    for (int layer = 0; layer < system.model->num_layers(); ++layer) {
      core::PreprocessTimings timings;
      DE_CHECK((*de)->index_manager()->EnsureIndex(layer, nullptr, &timings)
                   .ok());
      inference += timings.inference_seconds;
      index += timings.index_seconds;
      persist += timings.persist_seconds;
      result.deepeverest.inference.push_back(inference);
      result.deepeverest.index.push_back(index);
      result.deepeverest.persist.push_back(persist);
    }
  }

  // --- PreprocessAll: a single inference pass (charged as it progresses
  // through layers) followed by per-layer force-synced writes.
  {
    bench::ScratchDir scratch("fig10-pa");
    auto store = storage::FileStore::Open(scratch.path());
    DE_CHECK(store.ok());
    storage::ActivationStore activations(&store.value());
    auto engine = system.NewEngine();
    const uint32_t n = system.dataset->size();

    // One pass computing everything (inference cost is attributed to the
    // final layer since the pass is shared — we record it as a flat line
    // reaching the total at the last layer, matching how the paper plots a
    // single preprocessing job).
    Stopwatch watch;
    std::vector<storage::LayerActivationMatrix> matrices;
    for (int layer = 0; layer < system.model->num_layers(); ++layer) {
      matrices.push_back(storage::LayerActivationMatrix::Make(
          n, static_cast<uint64_t>(system.model->NeuronCount(layer))));
    }
    std::vector<Tensor> outputs;
    for (uint32_t id = 0; id < n; ++id) {
      DE_CHECK(engine->ComputeAllLayers(id, &outputs).ok());
      for (int layer = 0; layer < system.model->num_layers(); ++layer) {
        const Tensor& out = outputs[static_cast<size_t>(layer)];
        std::copy(out.vec().begin(), out.vec().end(),
                  matrices[static_cast<size_t>(layer)].MutableRow(id));
      }
    }
    const double total_inference = watch.ElapsedSeconds();

    double persist = 0.0;
    for (int layer = 0; layer < system.model->num_layers(); ++layer) {
      Stopwatch persist_watch;
      DE_CHECK(activations
                   .Save(system.model->name(), layer,
                         matrices[static_cast<size_t>(layer)], /*sync=*/true)
                   .ok());
      persist += persist_watch.ElapsedSeconds();
      // Attribute inference cost proportionally to cumulative layer MACs so
      // the per-layer series is meaningful.
      const double frac =
          static_cast<double>(system.model->CumulativeMacs(layer)) /
          static_cast<double>(
              system.model->CumulativeMacs(system.model->num_layers() - 1));
      result.preprocess_all.inference.push_back(total_inference * frac);
      result.preprocess_all.index.push_back(0.0);
      result.preprocess_all.persist.push_back(persist);
    }
  }
  Results().push_back(std::move(result));
}

}  // namespace
}  // namespace deepeverest

int main(int argc, char** argv) {
  using namespace deepeverest;  // NOLINT
  benchmark::Initialize(&argc, argv);
  const bench::Scale scale = bench::GetScale();
  const bench::System vgg = bench::MakeVggSystem(scale);
  const bench::System resnet = bench::MakeResnetSystem(scale);
  for (const bench::System* system : {&vgg, &resnet}) {
    benchmark::RegisterBenchmark(
        ("Fig10/" + system->name).c_str(),
        [system](benchmark::State& state) {
          for (auto _ : state) RunSystem(*system);
        })
        ->Iterations(1)
        ->Unit(benchmark::kSecond);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  for (const auto& result : Results()) {
    bench_util::PrintBanner(
        std::cout,
        "Figure 10: cumulative preprocessing time (all layers), " +
            result.system,
        "Per-layer cumulative seconds; persistence is force-synced.");
    const size_t layers = result.deepeverest.inference.size();
    bench_util::TablePrinter table(
        {"Layer", "DE inference", "DE index", "DE persist", "DE total",
         "PA inference", "PA persist", "PA total"});
    for (size_t layer = 0; layer < layers; ++layer) {
      // Print every other layer to keep the table readable.
      if (layer % 2 != 0 && layer + 1 != layers) continue;
      const double de_total = result.deepeverest.inference[layer] +
                              result.deepeverest.index[layer] +
                              result.deepeverest.persist[layer];
      const double pa_total = result.preprocess_all.inference[layer] +
                              result.preprocess_all.persist[layer];
      table.AddRow(
          {std::to_string(layer),
           bench_util::FormatSeconds(result.deepeverest.inference[layer]),
           bench_util::FormatSeconds(result.deepeverest.index[layer]),
           bench_util::FormatSeconds(result.deepeverest.persist[layer]),
           bench_util::FormatSeconds(de_total),
           bench_util::FormatSeconds(result.preprocess_all.inference[layer]),
           bench_util::FormatSeconds(result.preprocess_all.persist[layer]),
           bench_util::FormatSeconds(pa_total)});
    }
    table.Print(std::cout);
  }
  return 0;
}
