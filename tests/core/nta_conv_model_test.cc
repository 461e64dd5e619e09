// Oracle tests of NTA over a real convolutional model and image data (the
// TEST_P sweeps use a fast MLP; this exercises the conv/pool/residual code
// paths end to end through the facade, including MAI and incremental
// indexing, on both zoo models).
#include <gtest/gtest.h>

#include "core/deepeverest.h"
#include "core/nta.h"
#include "nn/model_zoo.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace core {
namespace {

using testing_util::BruteForceHighest;
using testing_util::BruteForceMostSimilar;
using testing_util::ExpectValidTopK;
using testing_util::TempDir;

data::Dataset SmallImages(uint64_t seed) {
  data::SyntheticImageConfig config;
  config.num_inputs = 60;
  config.seed = seed;
  return data::MakeSyntheticImages(config);
}

class ConvModelTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ConvModelTest, FacadeMatchesBruteForceOnAllActivationLayers) {
  const bool is_vgg = std::string(GetParam()) == "vgg";
  nn::ModelPtr model =
      is_vgg ? nn::MakeMiniVgg(123) : nn::MakeMiniResNet(123);
  data::Dataset dataset = SmallImages(is_vgg ? 7 : 8);
  TempDir dir("conv");
  auto store = storage::FileStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  DeepEverestOptions options;
  options.batch_size = 16;
  options.num_partitions_override = 4;
  options.mai_ratio_override = 0.1;
  auto de = DeepEverest::Create(model.get(), &dataset, &store.value(),
                                options);
  ASSERT_TRUE(de.ok());

  Rng rng(31);
  for (int layer : model->activation_layers()) {
    const uint32_t target =
        static_cast<uint32_t>(rng.NextUint64(dataset.size()));
    auto top_neurons = (*de)->MaximallyActivatedNeurons(target, layer, 3);
    ASSERT_TRUE(top_neurons.ok());
    NeuronGroup group{layer, *top_neurons};

    auto actual = (*de)->ExecuteSpec(MostSimilarQuery(target, group, 8));
    ASSERT_TRUE(actual.ok()) << "layer " << layer;

    std::vector<std::vector<float>> rows;
    DE_ASSERT_OK((*de)->inference()->ComputeLayer({target}, layer, &rows));
    std::vector<float> target_acts(group.neurons.size());
    for (size_t i = 0; i < group.neurons.size(); ++i) {
      target_acts[i] = rows[0][static_cast<size_t>(group.neurons[i])];
    }
    auto expected =
        BruteForceMostSimilar((*de)->inference(), group, target_acts, 8,
                              L2Distance(), true, target);
    ASSERT_TRUE(expected.ok());
    ExpectValidTopK(*expected, *actual, /*smaller_is_better=*/true, 1e-4);

    auto actual_high = (*de)->ExecuteSpec(HighestQuery(group, 8));
    ASSERT_TRUE(actual_high.ok());
    auto expected_high =
        BruteForceHighest((*de)->inference(), group, 8, L2Distance());
    ASSERT_TRUE(expected_high.ok());
    ExpectValidTopK(*expected_high, *actual_high, false, 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Models, ConvModelTest,
                         ::testing::Values("vgg", "resnet"));

}  // namespace
}  // namespace core
}  // namespace deepeverest
