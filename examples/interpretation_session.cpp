// Simulates the DNN interpretation session from the paper's introduction:
// a user studies why the model responds strongly to one input by
// (1) finding the maximally activated neurons of a late layer,
// (2) asking for the inputs most similar under those neurons,
// (3) widening the neuron group (top-3 -> top-4 -> top-5), which
//     Inter-Query Acceleration makes nearly free.
//
//   ./examples/interpretation_session
#include <cstdio>

#include "core/deepeverest.h"
#include "data/dataset.h"
#include "nn/model_zoo.h"
#include "storage/file_store.h"

using namespace deepeverest;  // NOLINT: example brevity

namespace {

int Run() {
  nn::ModelPtr model = nn::MakeMiniResNet(/*seed=*/3);
  data::SyntheticImageConfig data_config;
  data_config.num_inputs = 300;
  data_config.seed = 11;
  data::Dataset dataset = data::MakeSyntheticImages(data_config);

  auto dir = storage::MakeTempDir("session");
  if (!dir.ok()) return 1;
  auto store = storage::FileStore::Open(*dir);
  if (!store.ok()) return 1;

  core::DeepEverestOptions options;
  options.batch_size = 16;
  options.enable_iqa = true;  // the session asks related queries
  options.iqa_capacity_bytes = 64ull << 20;
  auto de = core::DeepEverest::Create(model.get(), &dataset, &store.value(),
                                      options);
  if (!de.ok()) {
    std::fprintf(stderr, "%s\n", de.status().ToString().c_str());
    return 1;
  }

  const uint32_t image = 42;  // the "misclassified image" under study
  const int layer = model->activation_layers().back();
  std::printf("Studying input %u (label %d) at layer %d (%lld neurons)\n",
              image, dataset.label(image), layer,
              static_cast<long long>(model->NeuronCount(layer)));

  // Step 1: which neurons fire the most for this input?
  auto top_neurons = (*de)->MaximallyActivatedNeurons(image, layer, 5);
  if (!top_neurons.ok()) return 1;
  std::printf("\nMaximally activated neurons:");
  for (int64_t n : *top_neurons) std::printf(" %lld", static_cast<long long>(n));
  std::printf("\n");

  // Step 2..4: SimTop queries over the top-3, then top-4, then top-5
  // neurons. The queries overlap, so IQA reuses cached activations.
  for (int group_size = 3; group_size <= 5; ++group_size) {
    core::NeuronGroup group;
    group.layer = layer;
    group.neurons.assign(top_neurons->begin(),
                         top_neurons->begin() + group_size);
    auto result =
        (*de)->ExecuteSpec(core::MostSimilarQuery(image, group, /*k=*/5));
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "\nTop-5 similar to input %u under its top-%d neurons "
        "(inference on %lld inputs, %lld served by IQA cache):\n",
        image, group_size,
        static_cast<long long>(result->stats.inputs_run),
        static_cast<long long>(result->stats.iqa_hits));
    int same_label = 0;
    for (const auto& e : result->entries) {
      std::printf("  input %4u  dist %.4f  label %d\n", e.input_id, e.value,
                  dataset.label(e.input_id));
      if (dataset.label(e.input_id) == dataset.label(image)) ++same_label;
    }
    std::printf("  -> %d/5 neighbours share input %u's class\n", same_label,
                image);
  }

  const auto& cache_stats = (*de)->iqa_cache()->stats();
  std::printf("\nIQA cache over the whole session: %lld hits, %lld misses\n",
              static_cast<long long>(cache_stats.hits),
              static_cast<long long>(cache_stats.misses));
  return 0;
}

}  // namespace

int main() { return Run(); }
