// Forward-pass golden hash. One 64-bit FNV-1a hash over the bits of every
// layer output of MiniVgg, MiniResNet and TinyMlp, on seeded synthetic
// inputs, is pinned to a recorded value. Any change to a layer's
// floating-point op order (a reordered reduction, a contracted multiply-add,
// a zero-padded tap that turns -0.0f into +0.0f) moves at least one bit and
// fails this test. The value does not depend on the kernel table, so it
// holds in both dispatch modes (CI runs the suite once with
// DEEPEVEREST_KERNELS=scalar).
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "nn/model.h"
#include "nn/model_zoo.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace nn {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

void HashFloats(const float* values, int64_t n, uint64_t* hash) {
  for (int64_t i = 0; i < n; ++i) {
    uint32_t bits = 0;
    std::memcpy(&bits, values + i, sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      *hash ^= (bits >> (8 * b)) & 0xffu;
      *hash *= kFnvPrime;
    }
  }
}

// Runs every input of `dataset` through `model` and folds every layer's
// output into `hash`, in layer order.
void HashForwardAll(const Model& model, const data::Dataset& dataset,
                    uint64_t* hash) {
  std::vector<Tensor> outputs;
  for (uint32_t id = 0; id < dataset.size(); ++id) {
    ASSERT_TRUE(model.ForwardAll(dataset.input(id), &outputs).ok());
    ASSERT_EQ(outputs.size(), static_cast<size_t>(model.num_layers()));
    for (const Tensor& out : outputs) {
      HashFloats(out.data(), out.NumElements(), hash);
    }
  }
}

data::Dataset SeededImages(uint32_t num_inputs, uint64_t seed) {
  data::SyntheticImageConfig config;
  config.num_inputs = num_inputs;
  config.seed = seed;
  return data::MakeSyntheticImages(config);
}

TEST(ForwardGoldenTest, MiniVggMiniResNetTinyMlpOutputBitsArePinned) {
  uint64_t hash = kFnvOffset;
  const data::Dataset images = SeededImages(48, 11);
  HashForwardAll(*MakeMiniVgg(3), images, &hash);
  HashForwardAll(*MakeMiniResNet(5), images, &hash);
  HashForwardAll(*MakeTinyMlp(8, 7),
                 testing_util::MakeVectorDataset(64, 8, 13), &hash);
  EXPECT_EQ(hash, 0x241830acb9f3e09bull) << std::hex << "got 0x" << hash;
}

}  // namespace
}  // namespace nn
}  // namespace deepeverest
