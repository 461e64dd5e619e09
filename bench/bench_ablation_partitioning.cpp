// Ablation (not a paper table, but validates the paper's §4.3 design
// choice): equi-depth vs equi-width partitioning. Activation values are
// heavily skewed (post-ReLU mass at/near zero + a long tail), so equi-width
// partitions concentrate most inputs into one or two partitions and NTA
// loses its pruning power. Expected shape: equi-depth runs inference on
// substantially fewer inputs at every nPartitions setting.
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

// scheme -> nPartitions -> median inputs run (SimHigh g3, late layer).
std::map<std::string, std::map<int, int64_t>>& Cells() {
  static auto& cells = *new std::map<std::string, std::map<int, int64_t>>();
  return cells;
}

const std::vector<int>& PartitionSweep() {
  static const auto& sweep = *new std::vector<int>{8, 16, 32, 64};
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

  for (core::PartitionScheme scheme :
       {core::PartitionScheme::kEquiDepth,
        core::PartitionScheme::kEquiWidth}) {
    const std::string scheme_name =
        scheme == core::PartitionScheme::kEquiDepth ? "equi-depth"
                                                    : "equi-width";
    for (int num_partitions : PartitionSweep()) {
      core::LayerIndexConfig config;
      config.num_partitions = num_partitions;
      config.scheme = scheme;
      auto index = core::LayerIndex::Build(*matrix, config);
      DE_CHECK(index.ok());
      Rng rng(4100 + num_partitions);
      std::vector<double> inputs;
      for (int trial = 0; trial < scale.trials; ++trial) {
        const uint32_t target = static_cast<uint32_t>(
            rng.NextUint64(system.dataset->size()));
        auto group = bench_util::MakeNeuronGroup(
            generator.get(), target, layer, bench_util::GroupKind::kRandHigh,
            3, &rng);
        DE_CHECK(group.ok());
        core::NtaEngine nta(engine.get(), &index.value());
        core::NtaOptions options;
        options.k = 20;
        auto result = bench::RunNta(&nta, *group,
                                    core::QuerySpec::Kind::kMostSimilar,
                                    target, options);
        DE_CHECK(result.ok()) << result.status().ToString();
        inputs.push_back(static_cast<double>(result->stats.inputs_run));
      }
      Cells()[scheme_name][num_partitions] =
          static_cast<int64_t>(bench::Median(inputs));
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
  benchmark::RegisterBenchmark(("Ablation/" + vgg.name).c_str(),
                               [&vgg](benchmark::State& state) {
                                 for (auto _ : state) RunSweep(vgg);
                               })
      ->Iterations(1)
      ->Unit(benchmark::kSecond);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  bench_util::PrintBanner(
      std::cout,
      "Ablation: equi-depth vs equi-width partitioning, " + vgg.name,
      "#inputs run by the DNN for SimHigh (g3, late layer, k=20) over " +
          std::to_string(vgg.dataset->size()) +
          " inputs. Validates the paper's §4.3 equi-depth choice on skewed "
          "activations.");
  std::vector<std::string> headers = {"Scheme"};
  for (int p : PartitionSweep()) headers.push_back("P=" + std::to_string(p));
  bench_util::TablePrinter table(headers);
  for (const char* scheme : {"equi-depth", "equi-width"}) {
    std::vector<std::string> row = {scheme};
    for (int p : PartitionSweep()) {
      row.push_back(std::to_string(Cells()[scheme][p]));
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
  return 0;
}
