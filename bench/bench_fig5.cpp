// Reproduces **Figure 5 (a-f)**: end-to-end individual query times and
// storage for DeepEverest (20% budget, indexes prebuilt as in §5.2) vs
// PreprocessAll and ReprocessAll, across both systems x {FireMax, SimTop,
// SimHigh} x {early, mid, late} x group sizes {1, 3, 10}.
//
// Expected shape (paper §5.2): DeepEverest approaches (sometimes beats)
// PreprocessAll at ~20% of its storage, and beats ReprocessAll by large
// factors that shrink as the group grows (curse of dimensionality).
#include <benchmark/benchmark.h>

#include <array>
#include <iostream>

#include "baselines/preprocess_all.h"
#include "baselines/reprocess_all.h"
#include "bench/bench_common.h"
#include "bench_util/query_gen.h"
#include "bench_util/report.h"
#include "common/stopwatch.h"
#include "core/deepeverest.h"

namespace deepeverest {
namespace {

using bench_util::LayerDepth;
using bench_util::QueryType;

struct Row {
  std::string system;
  std::string query;
  double de_seconds = 0.0;
  double pa_seconds = 0.0;
  double ra_seconds = 0.0;
  int64_t de_inputs = 0;
};

struct SystemFixture {
  bench::System system;
  bench::ScratchDir scratch;
  std::unique_ptr<storage::FileStore> de_store;
  std::unique_ptr<storage::FileStore> pa_store;
  std::unique_ptr<core::DeepEverest> de;
  std::unique_ptr<nn::InferenceEngine> baseline_engine;
  std::unique_ptr<nn::InferenceEngine> generator_engine;
  std::unique_ptr<baselines::PreprocessAll> preprocess_all;
  std::unique_ptr<baselines::ReprocessAll> reprocess_all;
  uint64_t de_storage = 0;
  uint64_t pa_storage = 0;

  SystemFixture(bench::System sys, const std::string& tag)
      : system(std::move(sys)), scratch("fig5-" + tag) {
    auto de_dir = storage::FileStore::Open(scratch.path() + "/de");
    auto pa_dir = storage::FileStore::Open(scratch.path() + "/pa");
    DE_CHECK(de_dir.ok() && pa_dir.ok());
    de_store = std::make_unique<storage::FileStore>(std::move(*de_dir));
    pa_store = std::make_unique<storage::FileStore>(std::move(*pa_dir));

    core::DeepEverestOptions options;
    options.batch_size = system.batch_size;
    options.storage_budget_fraction = 0.2;
    auto created = core::DeepEverest::Create(
        system.model.get(), system.dataset.get(), de_store.get(), options);
    DE_CHECK(created.ok()) << created.status().ToString();
    de = std::move(*created);
    // §5.2 prebuilds the indexes for all layers before the benchmark.
    DE_CHECK(de->PreprocessAllLayers().ok());
    de_storage = de->PersistedIndexBytes().ValueOr(0);

    baseline_engine = system.NewEngine();
    generator_engine = system.NewEngine();
    preprocess_all = std::make_unique<baselines::PreprocessAll>(
        baseline_engine.get(), pa_store.get());
    DE_CHECK(preprocess_all->Preprocess().ok());
    pa_storage = preprocess_all->StorageBytes().ValueOr(0);
    reprocess_all =
        std::make_unique<baselines::ReprocessAll>(baseline_engine.get());
  }
};

std::vector<Row>& Rows() {
  static auto& rows = *new std::vector<Row>();
  return rows;
}

void RunConfig(SystemFixture* fixture, QueryType type, LayerDepth depth,
               int group_size, Row* row) {
  const bench::Scale scale = bench::GetScale();
  const int k = 20;
  Rng rng(static_cast<uint64_t>(type) * 1000 +
          static_cast<uint64_t>(depth) * 100 + group_size);
  // DeepEverest, PreprocessAll, ReprocessAll: the Row's column order.
  const std::array<core::QueryEngine*, 3> engines = {
      fixture->de.get(), fixture->preprocess_all.get(),
      fixture->reprocess_all.get()};
  std::array<std::vector<double>, 3> times;
  std::vector<double> de_inputs;
  for (int trial = 0; trial < scale.trials; ++trial) {
    auto query = bench_util::GenerateQuery(fixture->generator_engine.get(),
                                           type, depth, group_size, &rng);
    DE_CHECK(query.ok()) << query.status().ToString();
    const core::QuerySpec spec =
        type == QueryType::kFireMax
            ? core::HighestQuery(query->group, k)
            : core::MostSimilarQuery(query->target_id, query->group, k);
    for (size_t e = 0; e < engines.size(); ++e) {
      Stopwatch watch;
      auto result = engines[e]->ExecuteSpec(spec);
      DE_CHECK(result.ok()) << result.status().ToString();
      times[e].push_back(watch.ElapsedSeconds());
      if (e == 0) {
        de_inputs.push_back(static_cast<double>(result->stats.inputs_run));
      }
    }
  }
  row->de_seconds = bench::Median(times[0]);
  row->pa_seconds = bench::Median(times[1]);
  row->ra_seconds = bench::Median(times[2]);
  row->de_inputs = static_cast<int64_t>(bench::Median(de_inputs));
}

void RegisterSystem(SystemFixture* fixture) {
  for (QueryType type :
       {QueryType::kFireMax, QueryType::kSimTop, QueryType::kSimHigh}) {
    for (LayerDepth depth :
         {LayerDepth::kEarly, LayerDepth::kMid, LayerDepth::kLate}) {
      for (int group_size : {1, 3, 10}) {
        const std::string name =
            "Fig5/" + fixture->system.name + "/" +
            bench_util::QueryTypeToString(type) + "/" +
            bench_util::LayerDepthToString(depth) + "/g" +
            std::to_string(group_size);
        benchmark::RegisterBenchmark(
            name.c_str(),
            [fixture, type, depth, group_size,
             name](benchmark::State& state) {
              Row row;
              row.system = fixture->system.name;
              row.query = name.substr(name.find('/') + 1);
              for (auto _ : state) {
                RunConfig(fixture, type, depth, group_size, &row);
              }
              state.counters["de_inputs"] =
                  static_cast<double>(row.de_inputs);
              Rows().push_back(row);
            })
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
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
  SystemFixture vgg(bench::MakeVggSystem(scale), "vgg");
  SystemFixture resnet(bench::MakeResnetSystem(scale), "resnet");
  RegisterSystem(&vgg);
  RegisterSystem(&resnet);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  for (const SystemFixture* fixture : {&vgg, &resnet}) {
    const uint64_t accounted = fixture->de->AnalyticIndexBytes();
    bench_util::PrintBanner(
        std::cout,
        "Figure 5: individual query times, " + fixture->system.name,
        "DeepEverest storage: " + bench_util::FormatBytes(accounted) +
            " accounted (" +
            bench_util::FormatDouble(
                100.0 * static_cast<double>(accounted) /
                    static_cast<double>(fixture->pa_storage),
                1) +
            "% of PreprocessAll's " +
            bench_util::FormatBytes(fixture->pa_storage) +
            "); on-disk incl. per-partition bounds: " +
            bench_util::FormatBytes(fixture->de_storage) +
            " (bounds are negligible at the paper's 10k-input scale but "
            "visible at this benchmark scale)");
    bench_util::TablePrinter table({"Query", "DeepEverest", "PreprocessAll",
                                    "ReprocessAll", "DE speedup vs RA",
                                    "DE inputs run"});
    for (const auto& row : Rows()) {
      if (row.system != fixture->system.name) continue;
      table.AddRow({row.query.substr(row.query.find('/') + 1),
                    bench_util::FormatSeconds(row.de_seconds),
                    bench_util::FormatSeconds(row.pa_seconds),
                    bench_util::FormatSeconds(row.ra_seconds),
                    bench_util::FormatSpeedup(row.ra_seconds / row.de_seconds),
                    std::to_string(row.de_inputs)});
    }
    table.Print(std::cout);
  }
  return 0;
}
