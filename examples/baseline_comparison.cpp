// Runs the same query through DeepEverest and each baseline strategy and
// prints the time / storage / inference trade-off (a one-row taste of the
// paper's Figure 5).
//
//   ./examples/baseline_comparison
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "baselines/preprocess_all.h"
#include "baselines/reprocess_all.h"
#include "bench_util/report.h"
#include "core/deepeverest.h"
#include "data/dataset.h"
#include "nn/model_zoo.h"
#include "storage/file_store.h"

using namespace deepeverest;  // NOLINT: example brevity

int main() {
  nn::ModelPtr model = nn::MakeMiniVgg(/*seed=*/8);
  data::SyntheticImageConfig data_config;
  data_config.num_inputs = 400;
  data_config.seed = 33;
  data::Dataset dataset = data::MakeSyntheticImages(data_config);
  nn::InferenceEngine baseline_engine(model.get(), &dataset, 16);

  auto dir = storage::MakeTempDir("compare");
  if (!dir.ok()) return 1;
  auto store_de = storage::FileStore::Open(*dir + "/de");
  auto store_pa = storage::FileStore::Open(*dir + "/pa");
  if (!store_de.ok() || !store_pa.ok()) return 1;

  core::DeepEverestOptions de_options;
  de_options.batch_size = 16;
  de_options.storage_budget_fraction = 0.2;
  auto de = core::DeepEverest::Create(model.get(), &dataset,
                                      &store_de.value(), de_options);
  if (!de.ok()) return 1;

  baselines::PreprocessAll preprocess(&baseline_engine, &store_pa.value());
  baselines::ReprocessAll reprocess(&baseline_engine);
  if (!preprocess.Preprocess().ok()) return 1;

  const int layer = model->activation_layers()[2];
  const core::NeuronGroup group{layer, {3, 250, 999}};
  const uint32_t target = 77;
  const int k = 20;

  // Warm DeepEverest's index so the measured query is the steady state.
  if (!(*de)->ExecuteSpec(core::HighestQuery(group, 1)).ok()) return 1;

  // One SimHigh query, asked of every engine the same way.
  const core::QuerySpec spec = core::MostSimilarQuery(target, group, k);
  bench_util::TablePrinter table(
      {"Method", "Query time", "Inputs through DNN", "Disk storage"});
  std::vector<core::TopKResult> results;
  const std::vector<core::QueryEngine*> engines = {de->get(), &preprocess,
                                                   &reprocess};
  for (core::QueryEngine* engine : engines) {
    auto result = engine->ExecuteSpec(spec);
    if (!result.ok()) return 1;
    table.AddRow({engine->name(),
                  bench_util::FormatSeconds(result->stats.wall_seconds),
                  std::to_string(result->stats.inputs_run),
                  bench_util::FormatBytes(engine->StorageBytes().ValueOr(0))});
    results.push_back(std::move(*result));
  }

  std::printf("SimHigh query, k=%d, |G|=%zu, layer %d, %u inputs; "
              "DeepEverest has a 20%% storage budget\n\n",
              k, group.neurons.size(), layer, dataset.size());
  table.Print(std::cout);

  // Sanity: every method agrees on the result set values.
  for (const core::TopKResult& result : results) {
    for (size_t i = 0; i < result.entries.size(); ++i) {
      const double a = results[0].entries[i].value;
      const double b = result.entries[i].value;
      if (std::abs(a - b) > 1e-4) {
        std::fprintf(stderr, "rank %zu mismatch: %f %f\n", i, a, b);
        return 1;
      }
    }
  }
  std::printf("\nAll methods returned identical top-%d distances.\n", k);
  return 0;
}
