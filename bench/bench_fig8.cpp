// Reproduces **Figure 8**: speedups of FireMax and SimTop queries against
// ReprocessAll as the MAI `ratio` varies, with nPartitions fixed at 16
// (late layer). Expected shape: a large jump from ratio 0 to any non-zero
// ratio, then a plateau (and eventually decline, as loading a larger MAI
// costs more than it saves).
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

using bench_util::QueryType;

// (system, query type + group size) -> ratio -> speedup vs ReprocessAll.
std::map<std::string, std::map<double, double>>& Cells() {
  static auto& cells = *new std::map<std::string, std::map<double, double>>();
  return cells;
}

const std::vector<double>& RatioSweep() {
  static const auto& sweep =
      *new std::vector<double>{0.0, 0.01, 0.02, 0.05, 0.1, 0.2};
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

  // ReprocessAll reference time: one full pass + scan (measured once per
  // group size; the scan cost is group-size independent to first order).
  Stopwatch ra_watch;
  auto ra_matrix = baselines::ComputeLayerMatrix(engine.get(), layer);
  DE_CHECK(ra_matrix.ok());
  const double ra_seconds = ra_watch.ElapsedSeconds();

  for (double ratio : RatioSweep()) {
    auto index = core::LayerIndex::Build(
        *matrix, core::LayerIndexConfig{16, ratio});
    DE_CHECK(index.ok());
    for (QueryType type : {QueryType::kFireMax, QueryType::kSimTop}) {
      for (int group_size : {1, 3, 10}) {
        Rng rng(8000 + static_cast<int>(ratio * 1000) + group_size +
                static_cast<int>(type));
        std::vector<double> times;
        for (int trial = 0; trial < scale.trials; ++trial) {
          const uint32_t target = static_cast<uint32_t>(
              rng.NextUint64(system.dataset->size()));
          auto group = bench_util::MakeNeuronGroup(
              generator.get(), target, layer, bench_util::GroupKind::kTop,
              group_size, &rng);
          DE_CHECK(group.ok());
          core::NtaEngine nta(engine.get(), &index.value());
          core::NtaOptions options;
          options.k = 20;
          Stopwatch watch;
          const bool highest = type == QueryType::kFireMax;
          DE_CHECK(bench::RunNta(&nta, *group,
                                 highest ? core::QuerySpec::Kind::kHighest
                                         : core::QuerySpec::Kind::kMostSimilar,
                                 highest ? -1 : int64_t{target}, options)
                       .ok());
          times.push_back(watch.ElapsedSeconds());
        }
        const std::string key = system.name + "/" +
                                bench_util::QueryTypeToString(type) + "/g" +
                                std::to_string(group_size);
        Cells()[key][ratio] = ra_seconds / bench::Median(times);
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
        ("Fig8/" + system->name).c_str(),
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
        std::cout,
        "Figure 8: speedup vs ReprocessAll when varying MAI ratio, " +
            system->name,
        "Late layer, nPartitions=16, k=20. ratio=0 disables MAI.");
    std::vector<std::string> headers = {"Query"};
    for (double r : RatioSweep()) {
      headers.push_back("ratio=" + bench_util::FormatDouble(r, 2));
    }
    bench_util::TablePrinter table(headers);
    for (const char* type : {"FireMax", "SimTop"}) {
      for (int group_size : {1, 3, 10}) {
        const std::string key = system->name + "/" + type + "/g" +
                                std::to_string(group_size);
        std::vector<std::string> row = {std::string(type) + "/g" +
                                        std::to_string(group_size)};
        for (double r : RatioSweep()) {
          row.push_back(bench_util::FormatSpeedup(Cells()[key][r]));
        }
        table.AddRow(row);
      }
    }
    table.Print(std::cout);
  }
  return 0;
}
