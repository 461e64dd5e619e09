// Demonstrates the section-6 extensions: θ-approximate answers, incremental
// result return, and interactive early stopping with a θ guarantee.
//
//   ./examples/approximate_queries
#include <cstdio>

#include "core/deepeverest.h"
#include "data/dataset.h"
#include "nn/model_zoo.h"
#include "storage/file_store.h"

using namespace deepeverest;  // NOLINT: example brevity

int main() {
  nn::ModelPtr model = nn::MakeMiniVgg(/*seed=*/5);
  data::SyntheticImageConfig data_config;
  data_config.num_inputs = 400;
  data_config.seed = 21;
  data::Dataset dataset = data::MakeSyntheticImages(data_config);

  auto dir = storage::MakeTempDir("approx");
  if (!dir.ok()) return 1;
  auto store = storage::FileStore::Open(*dir);
  if (!store.ok()) return 1;
  core::DeepEverestOptions de_options;
  de_options.batch_size = 16;
  auto de = core::DeepEverest::Create(model.get(), &dataset, &store.value(),
                                      de_options);
  if (!de.ok()) return 1;

  const int layer = model->activation_layers()[2];
  const uint32_t target = 9;
  // Query the target's maximally activated neurons (arbitrary neurons are
  // mostly zero for any one input under ReLU, which makes distances
  // degenerate).
  auto top_neurons = (*de)->MaximallyActivatedNeurons(target, layer, 3);
  if (!top_neurons.ok()) return 1;
  core::NeuronGroup group{layer, *top_neurons};

  // Warm the index so every run below is NTA-driven.
  if (!(*de)->ExecuteSpec(core::HighestQuery(group, 1)).ok()) return 1;

  // Exact vs θ-approximate: the approximation may stop earlier (fewer
  // inputs through the DNN) while guaranteeing θ·dist(returned) <=
  // dist(anything else).
  std::printf("theta   inputs_run   worst-dist\n");
  core::QuerySpec spec;
  spec.kind = core::QuerySpec::Kind::kMostSimilar;
  spec.k = 10;
  spec.layer = group.layer;
  spec.neurons = group.neurons;
  spec.target_id = static_cast<int64_t>(target);
  for (double theta : {1.0, 0.9, 0.7, 0.5}) {
    core::QuerySpec approx = spec;
    approx.theta = theta;
    auto result = (*de)->ExecuteSpec(approx);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("%.2f    %6lld       %.4f\n", theta,
                static_cast<long long>(result->stats.inputs_run),
                result->entries.back().value);
  }

  // Incremental return: watch answers become *final* before the query
  // finishes (section 6, "incrementally returning query results"). The
  // progress sink rides in a per-query QueryContext.
  std::printf("\nIncremental confirmation of the exact top-10:\n");
  core::QueryContext progress_ctx;
  progress_ctx.on_progress = [](const core::NtaProgress& p) {
    std::printf("  round %2lld: threshold %.4f, %zu/10 results confirmed\n",
                static_cast<long long>(p.round), p.threshold,
                p.confirmed.size());
    return true;
  };
  if (!(*de)->ExecuteSpec(spec, &progress_ctx).ok()) {
    return 1;
  }

  // Early stopping: the user halts after three rounds and still gets a
  // quantified guarantee.
  std::printf("\nEarly stop after 3 rounds:\n");
  double guarantee = 0.0;
  core::QueryContext stop_ctx;
  stop_ctx.on_progress = [&](const core::NtaProgress& p) {
    guarantee = p.theta_guarantee;
    return p.round < 3;
  };
  auto stopped = (*de)->ExecuteSpec(spec, &stop_ctx);
  if (!stopped.ok()) return 1;
  std::printf(
      "  returned %zu results after %lld inputs; they are a "
      "theta=%.3f approximation of the true top-10\n",
      stopped->entries.size(),
      static_cast<long long>(stopped->stats.inputs_run), guarantee);
  return 0;
}
