// Reproduces **Figure 6 (a-f)**: cumulative total time (preprocessing +
// query execution) on multi-query workloads for DeepEverest with
// incremental indexing vs the disk-cache baselines.
//
// Workload 1: p_same=.5 p_prev=.3 p_new=.2;  Workload 2: .5/.4/.1;
// Workload 3: uniform layers (DeepEverest's worst case). All queries are
// SimHigh over medium (3-neuron) groups, as in §5.3.
//
// Expected shape: DeepEverest's cumulative time grows fastest while it
// builds indexes for new layers, then plateaus and finishes lowest on
// workloads 1-2; on workload 3 it starts behind and wins late.
#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>
#include <vector>

#include "baselines/lru_cache.h"
#include "baselines/preprocess_all.h"
#include "baselines/priority_cache.h"
#include "baselines/reprocess_all.h"
#include "bench/bench_common.h"
#include "bench_util/query_gen.h"
#include "bench_util/report.h"
#include "common/stopwatch.h"
#include "core/deepeverest.h"

namespace deepeverest {
namespace {

struct Series {
  std::string system;
  std::string workload;
  std::string method;
  /// Modeled testbed time at each checkpoint: K80-calibrated simulated
  /// inference plus bytes moved through the store at the modeled disk
  /// throughput — the accounting that matches the paper's GPU+EBS testbed.
  std::vector<double> cumulative_modeled;
  /// Raw wall-clock on this machine, for reference.
  std::vector<double> cumulative_wall;
  uint64_t storage_bytes = 0;
};

std::vector<Series>& AllSeries() {
  static auto& series = *new std::vector<Series>();
  return series;
}

std::vector<int> Checkpoints(int total) {
  std::vector<int> points;
  for (int frac = 1; frac <= 8; ++frac) {
    points.push_back(total * frac / 8);
  }
  return points;
}

std::vector<core::QuerySpec> BuildWorkload(const bench::System& system,
                                           double p_same, double p_prev,
                                           double p_new, int num_queries,
                                           int k, uint64_t seed) {
  auto generator = system.NewEngine();
  bench_util::WorkloadSpec spec;
  spec.p_same = p_same;
  spec.p_prev = p_prev;
  spec.p_new = p_new;
  spec.num_queries = num_queries;
  spec.seed = seed;
  const std::vector<int> layers =
      bench_util::GenerateLayerSequence(system.model->activation_layers(),
                                        spec);
  Rng rng(seed * 13 + 5);
  std::vector<core::QuerySpec> queries;
  queries.reserve(layers.size());
  for (int layer : layers) {
    const uint32_t target_id =
        static_cast<uint32_t>(rng.NextUint64(system.dataset->size()));
    auto group = bench_util::MakeNeuronGroup(
        generator.get(), target_id, layer, bench_util::GroupKind::kRandHigh,
        /*size=*/3, &rng);
    DE_CHECK(group.ok()) << group.status().ToString();
    queries.push_back(core::MostSimilarQuery(target_id, *group, k));
  }
  return queries;
}

/// One method of the comparison: its engine, the inference engine and store
/// only it uses (so the modeled clock charges it exactly its own work), and
/// the preprocessing wall time charged before query 0.
struct Method {
  core::QueryEngine* engine;
  const nn::InferenceEngine* inference;
  const storage::FileStore* store;  // null: no storage traffic
  double preprocess_seconds;
};

/// Runs a workload through one method, sampling both wall time and the
/// modeled-testbed clock at the checkpoints. Modeled time is the method's
/// simulated-GPU inference so far plus its store traffic at the modeled
/// reference-disk throughput, preprocessing included.
void RunWorkload(const std::vector<core::QuerySpec>& queries,
                 const Method& method, double disk_bytes_per_second,
                 Series* series) {
  const auto modeled_now = [&] {
    double modeled = method.inference->stats().simulated_gpu_seconds;
    if (method.store != nullptr) {
      modeled += static_cast<double>(method.store->bytes_written() +
                                     method.store->bytes_read()) /
                 disk_bytes_per_second;
    }
    return modeled;
  };
  const std::vector<int> checkpoints = Checkpoints(
      static_cast<int>(queries.size()));
  double wall = method.preprocess_seconds;
  size_t next_checkpoint = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    Stopwatch watch;
    DE_CHECK(method.engine->ExecuteSpec(queries[q]).ok());
    wall += watch.ElapsedSeconds();
    while (next_checkpoint < checkpoints.size() &&
           static_cast<int>(q + 1) == checkpoints[next_checkpoint]) {
      series->cumulative_wall.push_back(wall);
      series->cumulative_modeled.push_back(modeled_now());
      ++next_checkpoint;
    }
  }
}

void RunSystemWorkload(const bench::System& system,
                       const std::string& workload_name, double p_same,
                       double p_prev, double p_new) {
  const bench::Scale scale = bench::GetScale();
  const std::vector<core::QuerySpec> queries = BuildWorkload(
      system, p_same, p_prev, p_new, scale.workload_queries, /*k=*/20,
      std::hash<std::string>{}(workload_name) % 1000 + 17);

  const uint64_t full_bytes = [&] {
    int64_t total_neurons = 0;
    for (int layer = 0; layer < system.model->num_layers(); ++layer) {
      total_neurons += system.model->NeuronCount(layer);
    }
    return static_cast<uint64_t>(total_neurons) * system.dataset->size() * 4;
  }();
  const uint64_t budget = full_bytes / 5;  // 20%

  bench::ScratchDir scratch("fig6");
  std::vector<std::unique_ptr<storage::FileStore>> stores;
  const auto open_store = [&](const std::string& name) {
    auto store = storage::FileStore::Open(scratch.path() + "/" + name);
    DE_CHECK(store.ok()) << store.status().ToString();
    stores.push_back(std::make_unique<storage::FileStore>(std::move(*store)));
    return stores.back().get();
  };

  // DeepEverest with incremental indexing (no preprocessing).
  storage::FileStore* de_store = open_store("de");
  core::DeepEverestOptions options;
  options.batch_size = system.batch_size;
  options.storage_budget_fraction = 0.2;
  auto de = core::DeepEverest::Create(system.model.get(),
                                      system.dataset.get(), de_store, options);
  DE_CHECK(de.ok());
  system.ApplyCostModel((*de)->inference());

  // PreprocessAll: full materialisation charged to query 0.
  auto pa_inference = system.NewEngine();
  storage::FileStore* pa_store = open_store("pa");
  baselines::PreprocessAll preprocess_all(pa_inference.get(), pa_store);
  Stopwatch pa_watch;
  DE_CHECK(preprocess_all.Preprocess().ok());
  const double pa_seconds = pa_watch.ElapsedSeconds();

  auto ra_inference = system.NewEngine();
  baselines::ReprocessAll reprocess_all(ra_inference.get());

  // LRU Cache (20% budget).
  auto lru_inference = system.NewEngine();
  storage::FileStore* lru_store = open_store("lru");
  baselines::LruCacheEngine lru(lru_inference.get(), lru_store, budget);

  // Priority Cache (MISTIQUE cost model, 20% budget).
  auto pri_inference = system.NewEngine();
  storage::FileStore* pri_store = open_store("pri");
  baselines::PriorityCacheEngine priority(pri_inference.get(), pri_store,
                                          budget);
  Stopwatch pri_watch;
  DE_CHECK(priority.Preprocess().ok());
  const double pri_seconds = pri_watch.ElapsedSeconds();

  const Method methods[] = {
      {de->get(), (*de)->inference(), de_store, 0.0},
      {&preprocess_all, pa_inference.get(), pa_store, pa_seconds},
      {&reprocess_all, ra_inference.get(), nullptr, 0.0},
      {&lru, lru_inference.get(), lru_store, 0.0},
      {&priority, pri_inference.get(), pri_store, pri_seconds},
  };
  for (const Method& method : methods) {
    Series series{system.name, workload_name, method.engine->name(), {}, {},
                  0};
    RunWorkload(queries, method, system.disk_bytes_per_second, &series);
    series.storage_bytes = method.engine->StorageBytes().ValueOr(0);
    AllSeries().push_back(std::move(series));
  }
}

}  // namespace
}  // namespace deepeverest

int main(int argc, char** argv) {
  using namespace deepeverest;  // NOLINT
  benchmark::Initialize(&argc, argv);
  const bench::Scale scale = bench::GetScale();
  const bench::System vgg = bench::MakeVggSystem(scale);
  const bench::System resnet = bench::MakeResnetSystem(scale);

  struct WorkloadDef {
    const char* name;
    double p_same, p_prev, p_new;
  };
  const WorkloadDef workloads[] = {
      {"Workload 1 (.5/.3/.2)", 0.5, 0.3, 0.2},
      {"Workload 2 (.5/.4/.1)", 0.5, 0.4, 0.1},
      {"Workload 3 (uniform)", 0.0, 0.0, 1.0},
  };
  for (const bench::System* system : {&vgg, &resnet}) {
    for (const WorkloadDef& workload : workloads) {
      const std::string name =
          "Fig6/" + system->name + "/" + workload.name;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [system, workload](benchmark::State& state) {
            for (auto _ : state) {
              RunSystemWorkload(*system, workload.name, workload.p_same,
                                workload.p_prev, workload.p_new);
            }
          })
          ->Iterations(1)
          ->Unit(benchmark::kSecond);
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Print one table per (system, workload): cumulative seconds at each
  // checkpoint, matching the paper's Figure 6 series.
  const int total = bench::GetScale().workload_queries;
  for (const bench::System* system : {&vgg, &resnet}) {
    for (const WorkloadDef& workload : workloads) {
      bench_util::PrintBanner(
          std::cout,
          "Figure 6: cumulative total time, " + system->name + ", " +
              workload.name,
          std::to_string(total) +
              " SimHigh queries, medium groups, 20% storage budgets.\n"
              "Modeled testbed time (K80-calibrated inference + modeled "
              "reference disk) — the accounting matching the paper's "
              "GPU+EBS machine; wall-clock on this CPU follows.");
      std::vector<std::string> headers = {"Method"};
      for (int frac = 1; frac <= 8; ++frac) {
        headers.push_back("q" + std::to_string(total * frac / 8));
      }
      headers.push_back("storage");
      for (const bool modeled : {true, false}) {
        std::cout << (modeled ? "[modeled testbed time]\n"
                              : "\n[wall-clock on this machine]\n");
        bench_util::TablePrinter table(headers);
        for (const auto& series : AllSeries()) {
          if (series.system != system->name ||
              series.workload != workload.name) {
            continue;
          }
          std::vector<std::string> row = {series.method};
          const auto& values =
              modeled ? series.cumulative_modeled : series.cumulative_wall;
          for (double v : values) {
            row.push_back(bench_util::FormatDouble(v, 2) + "s");
          }
          row.push_back(bench_util::FormatBytes(series.storage_bytes));
          table.AddRow(row);
        }
        table.Print(std::cout);
      }
    }
  }
  return 0;
}
