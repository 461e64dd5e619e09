// Reproduces **Figure 9**: speedups against ReprocessAll achieved by
// DeepEverest when the automatic configuration selector (§4.7.2) is given
// different storage budgets. Expected shape: high speedups across budgets
// (the selector is robust), increasing with the budget, and larger for
// medium groups than for large groups.
#include <benchmark/benchmark.h>

#include <iostream>
#include <map>

#include "baselines/layer_scan_engine.h"
#include "bench/bench_common.h"
#include "bench_util/query_gen.h"
#include "bench_util/report.h"
#include "common/stopwatch.h"
#include "core/config.h"
#include "core/nta.h"

namespace deepeverest {
namespace {

using bench_util::QueryType;

// (system/query/group) -> budget % -> speedup.
std::map<std::string, std::map<int, double>>& Cells() {
  static auto& cells = *new std::map<std::string, std::map<int, double>>();
  return cells;
}

std::map<std::string, core::SystemConfig>& Configs() {
  static auto& configs = *new std::map<std::string, core::SystemConfig>();
  return configs;
}

const std::vector<int>& BudgetSweep() {
  static const auto& sweep = *new std::vector<int>{5, 10, 20, 40};
  return sweep;
}

void RunSweep(const bench::System& system) {
  const bench::Scale scale = bench::GetScale();
  auto engine = system.NewEngine();
  auto generator = system.NewEngine();
  const int layer =
      bench_util::PickLayer(*system.model, bench_util::LayerDepth::kLate);
  auto matrix = baselines::ComputeLayerMatrix(engine.get(), layer);
  DE_CHECK(matrix.ok());

  Stopwatch ra_watch;
  auto ra_matrix = baselines::ComputeLayerMatrix(engine.get(), layer);
  DE_CHECK(ra_matrix.ok());
  const double ra_seconds = ra_watch.ElapsedSeconds();

  int64_t total_neurons = 0;
  for (int l = 0; l < system.model->num_layers(); ++l) {
    total_neurons += system.model->NeuronCount(l);
  }
  const uint64_t full_bytes =
      static_cast<uint64_t>(total_neurons) * system.dataset->size() * 4;

  for (int budget_percent : BudgetSweep()) {
    const core::SystemConfig config = core::SelectConfig(
        full_bytes * static_cast<uint64_t>(budget_percent) / 100,
        system.batch_size, system.dataset->size(), total_neurons);
    Configs()[system.name + "/" + std::to_string(budget_percent)] = config;
    auto index = core::LayerIndex::Build(*matrix, config.ToLayerConfig());
    DE_CHECK(index.ok());
    for (QueryType type : {QueryType::kSimTop, QueryType::kSimHigh}) {
      for (int group_size : {3, 10}) {
        Rng rng(9000 + budget_percent * 10 + group_size +
                static_cast<int>(type));
        std::vector<double> times;
        for (int trial = 0; trial < scale.trials; ++trial) {
          const uint32_t target = static_cast<uint32_t>(
              rng.NextUint64(system.dataset->size()));
          auto group = bench_util::MakeNeuronGroup(
              generator.get(), target, layer,
              type == QueryType::kSimTop ? bench_util::GroupKind::kTop
                                         : bench_util::GroupKind::kRandHigh,
              group_size, &rng);
          DE_CHECK(group.ok());
          core::NtaEngine nta(engine.get(), &index.value());
          core::NtaOptions options;
          options.k = 20;
          Stopwatch watch;
          DE_CHECK(bench::RunNta(&nta, *group,
                                 core::QuerySpec::Kind::kMostSimilar, target,
                                 options)
                       .ok());
          times.push_back(watch.ElapsedSeconds());
        }
        const std::string key = system.name + "/" +
                                bench_util::QueryTypeToString(type) + "/g" +
                                std::to_string(group_size);
        Cells()[key][budget_percent] = ra_seconds / bench::Median(times);
      }
    }
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
  for (const bench::System* system : {&vgg, &resnet}) {
    benchmark::RegisterBenchmark(
        ("Fig9/" + system->name).c_str(),
        [system](benchmark::State& state) {
          for (auto _ : state) RunSweep(*system);
        })
        ->Iterations(1)
        ->Unit(benchmark::kSecond);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  for (const bench::System* system : {&vgg, &resnet}) {
    std::string config_line = "Selected configs:";
    for (int budget : BudgetSweep()) {
      const auto& config =
          Configs()[system->name + "/" + std::to_string(budget)];
      config_line += " " + std::to_string(budget) +
                     "%%->(P=" + std::to_string(config.num_partitions) +
                     ",r=" + bench_util::FormatDouble(config.mai_ratio, 3) +
                     ")";
    }
    bench_util::PrintBanner(
        std::cout,
        "Figure 9: speedups vs ReprocessAll across storage budgets, " +
            system->name,
        config_line);
    std::vector<std::string> headers = {"Query"};
    for (int budget : BudgetSweep()) {
      headers.push_back(std::to_string(budget) + "% budget");
    }
    bench_util::TablePrinter table(headers);
    for (const char* type : {"SimTop", "SimHigh"}) {
      for (int group_size : {3, 10}) {
        const std::string key = system->name + "/" + type + "/g" +
                                std::to_string(group_size);
        std::vector<std::string> row = {std::string(type) + "/g" +
                                        std::to_string(group_size)};
        for (int budget : BudgetSweep()) {
          row.push_back(bench_util::FormatSpeedup(Cells()[key][budget]));
        }
        table.AddRow(row);
      }
    }
    table.Print(std::cout);
  }
  return 0;
}
