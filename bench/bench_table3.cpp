// Reproduces **Table 3**: the number of inputs run by the DNN at query time
// for SimHigh queries, as a function of nPartitions, per layer (mid/late)
// and group size (1/3/10). This is the paper's hardware-independent cost
// metric; the expected shape is a monotone decrease with nPartitions, with
// diminishing returns for large groups (curse of dimensionality).
#include <benchmark/benchmark.h>

#include <iostream>
#include <map>

#include "baselines/layer_scan_engine.h"
#include "bench/bench_common.h"
#include "bench_util/query_gen.h"
#include "bench_util/report.h"
#include "core/nta.h"

namespace deepeverest {
namespace {

// (depth label + group size) -> nPartitions -> median inputs run.
std::map<std::string, std::map<int, int64_t>>& Cells() {
  static auto& cells = *new std::map<std::string, std::map<int, int64_t>>();
  return cells;
}

const std::vector<int>& PartitionSweep() {
  static const auto& sweep =
      *new std::vector<int>{4, 8, 16, 32, 64, 128, 256};
  return sweep;
}

void RunSweep(const bench::System& system) {
  const bench::Scale scale = bench::GetScale();
  auto engine = system.NewEngine();
  auto generator = system.NewEngine();
  for (bench_util::LayerDepth depth :
       {bench_util::LayerDepth::kMid, bench_util::LayerDepth::kLate}) {
    const int layer = bench_util::PickLayer(*system.model, depth);
    auto matrix = baselines::ComputeLayerMatrix(engine.get(), layer);
    DE_CHECK(matrix.ok());
    for (int num_partitions : PartitionSweep()) {
      auto index = core::LayerIndex::Build(
          *matrix, core::LayerIndexConfig{num_partitions, 0.0});
      DE_CHECK(index.ok());
      for (int group_size : {1, 3, 10}) {
        Rng rng(3000 + num_partitions * 10 + group_size +
                static_cast<int>(depth));
        std::vector<double> inputs;
        for (int trial = 0; trial < scale.trials; ++trial) {
          const uint32_t target = static_cast<uint32_t>(
              rng.NextUint64(system.dataset->size()));
          auto group = bench_util::MakeNeuronGroup(
              generator.get(), target, layer,
              bench_util::GroupKind::kRandHigh, group_size, &rng);
          DE_CHECK(group.ok());
          core::NtaEngine nta(engine.get(), &index.value());
          core::NtaOptions options;
          options.k = 20;
          auto result = bench::RunNta(&nta, *group,
                                      core::QuerySpec::Kind::kMostSimilar,
                                      target, options);
          DE_CHECK(result.ok());
          inputs.push_back(static_cast<double>(result->stats.inputs_run));
        }
        const std::string key = std::string(
            bench_util::LayerDepthToString(depth)) +
            "-" + std::to_string(group_size);
        Cells()[key][num_partitions] =
            static_cast<int64_t>(bench::Median(inputs));
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
  benchmark::RegisterBenchmark(("Table3/" + vgg.name).c_str(),
                               [&vgg](benchmark::State& state) {
                                 for (auto _ : state) RunSweep(vgg);
                               })
      ->Iterations(1)
      ->Unit(benchmark::kSecond);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  bench_util::PrintBanner(
      std::cout,
      "Table 3: #inputs run by the DNN at query time (SimHigh), " + vgg.name,
      "Dataset: " + std::to_string(vgg.dataset->size()) +
          " inputs, k=20, MAI off. Expected: monotone decrease with "
          "nPartitions; higher plateaus for larger groups.");
  std::vector<std::string> headers = {"Layer-Group"};
  for (int p : PartitionSweep()) headers.push_back(std::to_string(p));
  bench_util::TablePrinter table(headers);
  for (const char* depth : {"mid", "late"}) {
    for (int group_size : {1, 3, 10}) {
      const std::string key =
          std::string(depth) + "-" + std::to_string(group_size);
      std::vector<std::string> row = {key};
      for (int p : PartitionSweep()) {
        row.push_back(std::to_string(Cells()[key][p]));
      }
      table.AddRow(row);
    }
  }
  table.Print(std::cout);
  return 0;
}
