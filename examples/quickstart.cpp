// Quickstart: build a model and dataset, stand up DeepEverest, and run the
// two interpretation-by-example queries the system accelerates.
//
//   ./examples/quickstart
#include <cstdio>

#include "core/deepeverest.h"
#include "data/dataset.h"
#include "nn/model_zoo.h"
#include "storage/file_store.h"

using namespace deepeverest;  // NOLINT: example brevity

int main() {
  // 1. A frozen model and an input dataset (stand-ins for a trained VGG16
  //    and CIFAR10; see DESIGN.md for the substitution rationale).
  nn::ModelPtr model = nn::MakeMiniVgg(/*seed=*/42);
  data::SyntheticImageConfig data_config;
  data_config.num_inputs = 300;
  data_config.seed = 7;
  data::Dataset dataset = data::MakeSyntheticImages(data_config);

  // 2. A workspace for persisted indexes, and the system itself with a 20%
  //    storage budget (the paper's default).
  auto dir = storage::MakeTempDir("quickstart");
  if (!dir.ok()) {
    std::fprintf(stderr, "%s\n", dir.status().ToString().c_str());
    return 1;
  }
  auto store = storage::FileStore::Open(*dir);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  core::DeepEverestOptions options;
  options.batch_size = 16;
  options.storage_budget_fraction = 0.2;
  auto de = core::DeepEverest::Create(model.get(), &dataset, &store.value(),
                                      options);
  if (!de.ok()) {
    std::fprintf(stderr, "%s\n", de.status().ToString().c_str());
    return 1;
  }
  std::printf("DeepEverest ready: nPartitions=%d, MAI ratio=%.4f\n",
              (*de)->config().num_partitions, (*de)->config().mai_ratio);

  // 3. Top-k highest query ("which inputs maximally activate these
  //    neurons?") against three neurons of the mid activation layer.
  const int mid_layer = model->activation_layers()[2];
  core::NeuronGroup group{mid_layer, {10, 42, 100}};
  auto highest = (*de)->ExecuteSpec(core::HighestQuery(group, /*k=*/5));
  if (!highest.ok()) {
    std::fprintf(stderr, "%s\n", highest.status().ToString().c_str());
    return 1;
  }
  std::printf("\nTop-5 highest for %s:\n", group.ToString().c_str());
  for (const auto& e : highest->entries) {
    std::printf("  input %4u  score %.4f  (label %d)\n", e.input_id, e.value,
                dataset.label(e.input_id));
  }
  std::printf("  [first query on a layer builds its index: %lld inputs run]\n",
              static_cast<long long>(highest->stats.inputs_run));

  // 4. Top-k most-similar query ("which inputs look like input 17 to the
  //    neurons it activates most?"). The layer is now indexed, so NTA
  //    prunes inference. Arbitrary neurons would mostly be zero for this
  //    input (ReLU sparsity), so — as in real interpretation sessions — we
  //    query its maximally activated neurons.
  auto top_neurons = (*de)->MaximallyActivatedNeurons(17, mid_layer, 3);
  if (!top_neurons.ok()) {
    std::fprintf(stderr, "%s\n", top_neurons.status().ToString().c_str());
    return 1;
  }
  group.neurons = *top_neurons;
  auto similar = (*de)->ExecuteSpec(
      core::MostSimilarQuery(/*target_id=*/17, group, /*k=*/5));
  if (!similar.ok()) {
    std::fprintf(stderr, "%s\n", similar.status().ToString().c_str());
    return 1;
  }
  std::printf("\nTop-5 most similar to input 17 (label %d):\n",
              dataset.label(17));
  for (const auto& e : similar->entries) {
    std::printf("  input %4u  dist %.4f  (label %d)\n", e.input_id, e.value,
                dataset.label(e.input_id));
  }
  std::printf(
      "  [NTA ran inference on %lld of %u inputs — %.1f%% of the dataset]\n",
      static_cast<long long>(similar->stats.inputs_run), dataset.size(),
      100.0 * static_cast<double>(similar->stats.inputs_run) /
          dataset.size());
  return 0;
}
