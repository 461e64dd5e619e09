// Reproduces **Figure 11**: speedups of DeepEverest with Inter-Query
// Acceleration against DeepEverest without it, on sequences of related
// queries. Sequence 1: 5-neuron groups, 1 neuron replaced per query;
// Sequence 2: 10-neuron groups, 2 replaced. nPartitions=16, ratio=0 as in
// §5.6.
//
// Expected shape: speedup ~1x on the first query (cold cache), then a
// consistent multi-x speedup; smaller for the early layer, whose wide rows
// crowd the cache.
#include <benchmark/benchmark.h>

#include <iostream>
#include <map>

#include "baselines/layer_scan_engine.h"
#include "bench/bench_common.h"
#include "bench_util/query_gen.h"
#include "bench_util/report.h"
#include "common/stopwatch.h"
#include "core/iqa_cache.h"
#include "core/nta.h"

namespace deepeverest {
namespace {

// (sequence/depth) -> query position -> median speedup over targets.
std::map<std::string, std::map<int, double>>& Cells() {
  static auto& cells = *new std::map<std::string, std::map<int, double>>();
  return cells;
}

const std::vector<int>& ReportPositions() {
  static const auto& positions = *new std::vector<int>{0, 1, 4, 9, 19, 29};
  return positions;
}

void RunSequence(const bench::System& system, const std::string& label,
                 int group_size, int num_replace) {
  const bench::Scale scale = bench::GetScale();
  auto engine = system.NewEngine();
  auto generator = system.NewEngine();
  const int length = scale.iqa_queries;

  for (bench_util::LayerDepth depth :
       {bench_util::LayerDepth::kEarly, bench_util::LayerDepth::kMid,
        bench_util::LayerDepth::kLate}) {
    const int layer = bench_util::PickLayer(*system.model, depth);
    auto matrix = baselines::ComputeLayerMatrix(engine.get(), layer);
    DE_CHECK(matrix.ok());
    auto index = core::LayerIndex::Build(
        *matrix, core::LayerIndexConfig{16, 0.0});  // §5.6 configuration
    DE_CHECK(index.ok());

    // speedups[pos] over several random targets.
    std::map<int, std::vector<double>> speedups;
    Rng rng(1100 + group_size * 10 + static_cast<int>(depth));
    const int num_targets = 3;
    for (int t = 0; t < num_targets; ++t) {
      const uint32_t target = static_cast<uint32_t>(
          rng.NextUint64(system.dataset->size()));
      auto sequence = bench_util::GenerateIqaSequence(
          generator.get(), target, layer, group_size, num_replace, length,
          &rng);
      DE_CHECK(sequence.ok()) << sequence.status().ToString();

      core::IqaCache cache(64ull << 20);  // scaled stand-in for 1 GB
      for (int q = 0; q < length; ++q) {
        const core::NeuronGroup& group = (*sequence)[static_cast<size_t>(q)];
        core::NtaEngine nta(engine.get(), &index.value());
        core::NtaOptions options;
        options.k = 20;

        core::QueryContext with_ctx;
        with_ctx.iqa = &cache;
        Stopwatch with_watch;
        DE_CHECK(bench::RunNta(&nta, group,
                               core::QuerySpec::Kind::kMostSimilar, target,
                               options, &with_ctx)
                     .ok());
        const double with_iqa = with_watch.ElapsedSeconds();

        Stopwatch without_watch;
        DE_CHECK(bench::RunNta(&nta, group,
                               core::QuerySpec::Kind::kMostSimilar, target,
                               options)
                     .ok());
        const double without_iqa = without_watch.ElapsedSeconds();

        speedups[q].push_back(without_iqa / with_iqa);
      }
    }
    const std::string key =
        label + "/" + bench_util::LayerDepthToString(depth);
    for (int pos : ReportPositions()) {
      if (pos < length) Cells()[key][pos] = bench::Median(speedups[pos]);
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

  struct SequenceDef {
    const char* label;
    int group_size;
    int num_replace;
  };
  const SequenceDef sequences[] = {{"Sequence 1 (n=5, r=1)", 5, 1},
                                   {"Sequence 2 (n=10, r=2)", 10, 2}};
  for (const SequenceDef& seq : sequences) {
    benchmark::RegisterBenchmark(
        ("Fig11/" + std::string(seq.label)).c_str(),
        [&vgg, seq](benchmark::State& state) {
          for (auto _ : state) {
            RunSequence(vgg, seq.label, seq.group_size, seq.num_replace);
          }
        })
        ->Iterations(1)
        ->Unit(benchmark::kSecond);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  for (const SequenceDef& seq : sequences) {
    bench_util::PrintBanner(
        std::cout,
        "Figure 11: IQA speedups on related-query sequences, " + vgg.name,
        std::string(seq.label) + ", " + std::to_string(scale.iqa_queries) +
            " SimHigh queries, 64 MB cache, nPartitions=16, ratio=0");
    std::vector<std::string> headers = {"Layer"};
    for (int pos : ReportPositions()) {
      if (pos < scale.iqa_queries) {
        headers.push_back("query " + std::to_string(pos + 1));
      }
    }
    bench_util::TablePrinter table(headers);
    for (const char* depth : {"early", "mid", "late"}) {
      const std::string key = std::string(seq.label) + "/" + depth;
      std::vector<std::string> row = {depth};
      for (int pos : ReportPositions()) {
        if (pos < scale.iqa_queries) {
          row.push_back(bench_util::FormatSpeedup(Cells()[key][pos]));
        }
      }
      table.AddRow(row);
    }
    table.Print(std::cout);
  }
  return 0;
}
