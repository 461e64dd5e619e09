// Reproduces **Figure 7**: query times of SimHigh queries as nPartitions
// varies (MAI disabled). Reports wall-clock time on this machine plus the
// simulated-GPU time from the batch cost model, which is what exhibits the
// paper's plateau: past a certain nPartitions, partitions get smaller than
// the optimal batch and GPU parallelism goes unused.
#include <benchmark/benchmark.h>

#include <iostream>
#include <map>

#include "baselines/layer_scan_engine.h"
#include "bench/bench_common.h"
#include "bench_util/query_gen.h"
#include "bench_util/report.h"
#include "common/stopwatch.h"
#include "core/nta.h"

namespace deepeverest {
namespace {

struct Cell {
  double wall_seconds = 0.0;
  double gpu_seconds = 0.0;
  int64_t inputs_run = 0;
};

// (system, group size, nPartitions) -> cell; group sweep at the late layer.
std::map<std::string, std::map<int, std::map<int, Cell>>>& Cells() {
  static auto& cells =
      *new std::map<std::string, std::map<int, std::map<int, Cell>>>();
  return cells;
}

const std::vector<int>& PartitionSweep() {
  static const auto& sweep = *new std::vector<int>{4, 8, 16, 32, 64, 128};
  return sweep;
}

void RunSweep(const bench::System& system) {
  const bench::Scale scale = bench::GetScale();
  auto engine = system.NewEngine();
  auto generator = system.NewEngine();
  const int layer =
      bench_util::PickLayer(*system.model, bench_util::LayerDepth::kLate);

  // One inference pass for the layer; every index is built from it.
  auto matrix = baselines::ComputeLayerMatrix(engine.get(), layer);
  DE_CHECK(matrix.ok());

  for (int num_partitions : PartitionSweep()) {
    auto index = core::LayerIndex::Build(
        *matrix, core::LayerIndexConfig{num_partitions, 0.0});  // MAI off
    DE_CHECK(index.ok());
    for (int group_size : {1, 3, 10}) {
      Rng rng(900 + num_partitions * 10 + group_size);
      std::vector<double> walls, gpus, inputs;
      for (int trial = 0; trial < scale.trials; ++trial) {
        const uint32_t target = static_cast<uint32_t>(
            rng.NextUint64(system.dataset->size()));
        auto group = bench_util::MakeNeuronGroup(
            generator.get(), target, layer, bench_util::GroupKind::kRandHigh,
            group_size, &rng);
        DE_CHECK(group.ok());
        core::NtaEngine nta(engine.get(), &index.value());
        core::NtaOptions options;
        options.k = 20;
        Stopwatch watch;
        auto result = bench::RunNta(&nta, *group,
                                    core::QuerySpec::Kind::kMostSimilar,
                                    target, options);
        DE_CHECK(result.ok()) << result.status().ToString();
        walls.push_back(watch.ElapsedSeconds());
        gpus.push_back(result->stats.simulated_gpu_seconds);
        inputs.push_back(static_cast<double>(result->stats.inputs_run));
      }
      Cell cell;
      cell.wall_seconds = bench::Median(walls);
      cell.gpu_seconds = bench::Median(gpus);
      cell.inputs_run = static_cast<int64_t>(bench::Median(inputs));
      Cells()[system.name][group_size][num_partitions] = cell;
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
        ("Fig7/" + system->name).c_str(),
        [system](benchmark::State& state) {
          for (auto _ : state) RunSweep(*system);
        })
        ->Iterations(1)
        ->Unit(benchmark::kSecond);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  for (const bench::System* system : {&vgg, &resnet}) {
    bench_util::PrintBanner(
        std::cout, "Figure 7: SimHigh query time vs nPartitions, " +
                       system->name,
        "Late layer, MAI disabled, k=20. Simulated-GPU time shows the "
        "paper's plateau once partitions drop below the optimal batch (" +
            std::to_string(system->batch_size) + ").");
    std::vector<std::string> headers = {"Group size", "Metric"};
    for (int p : PartitionSweep()) headers.push_back("P=" + std::to_string(p));
    bench_util::TablePrinter table(headers);
    for (int group_size : {1, 3, 10}) {
      std::vector<std::string> wall_row = {"g" + std::to_string(group_size),
                                           "wall"};
      std::vector<std::string> gpu_row = {"", "simulated GPU"};
      for (int p : PartitionSweep()) {
        const auto& cell = Cells()[system->name][group_size][p];
        wall_row.push_back(bench_util::FormatSeconds(cell.wall_seconds));
        gpu_row.push_back(bench_util::FormatSeconds(cell.gpu_seconds));
      }
      table.AddRow(wall_row).AddRow(gpu_row);
    }
    table.Print(std::cout);
  }
  return 0;
}
