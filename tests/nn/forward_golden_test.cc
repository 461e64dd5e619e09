// Forward-pass golden hash. One 64-bit FNV-1a hash over the bits of every
// layer output of MiniVgg, MiniResNet and TinyMlp, on seeded synthetic
// inputs, is pinned to a recorded value. Any change to a layer's
// floating-point op order (a reordered reduction, a contracted multiply-add,
// a zero-padded tap that turns -0.0f into +0.0f) moves at least one bit and
// fails this test. The value does not depend on the kernel table, so it
// holds in both dispatch modes (CI runs the suite once with
// DEEPEVEREST_KERNELS=scalar).
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
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

// HashForwardAll through Model::ForwardRows with every layer's block
// given: the dataset runs in consecutive blocks whose sizes cycle through
// `block_sizes`, and the rows are hashed in the same order (per input,
// every layer in layer order).
void HashForwardAllRows(const Model& model, const data::Dataset& dataset,
                        const std::vector<size_t>& block_sizes,
                        uint64_t* hash) {
  const auto input_floats =
      static_cast<size_t>(model.input_shape().NumElements());
  const auto num_layers = static_cast<size_t>(model.num_layers());
  std::vector<float> scratch;
  size_t next = 0;
  for (uint32_t begin = 0; begin < dataset.size(); ++next) {
    const uint32_t count = std::min<uint32_t>(
        static_cast<uint32_t>(block_sizes[next % block_sizes.size()]),
        dataset.size() - begin);
    std::vector<float> in(count * input_floats);
    for (uint32_t i = 0; i < count; ++i) {
      const Tensor& input = dataset.input(begin + i);
      std::copy(input.data(), input.data() + input_floats,
                in.data() + i * input_floats);
    }
    std::vector<std::vector<float>> outs(num_layers);
    std::vector<float*> out_ptrs;
    for (size_t l = 0; l < num_layers; ++l) {
      outs[l].resize(count * static_cast<size_t>(
                                 model.NeuronCount(static_cast<int>(l))));
      out_ptrs.push_back(outs[l].data());
    }
    ASSERT_TRUE(model
                    .ForwardRows(in.data(), count, model.num_layers() - 1,
                                 out_ptrs.data(), &scratch)
                    .ok());
    for (uint32_t i = 0; i < count; ++i) {
      for (size_t l = 0; l < num_layers; ++l) {
        const int64_t neurons = model.NeuronCount(static_cast<int>(l));
        HashFloats(outs[l].data() + i * neurons, neurons, hash);
      }
    }
    begin += count;
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

// The same hash through the row-block API: each model's whole dataset in
// one block, then in uneven blocks of 1, 7 and 64 rows.
TEST(ForwardGoldenTest, RowBlocksReproduceThePinnedBits) {
  const data::Dataset images = SeededImages(48, 11);
  const data::Dataset vectors = testing_util::MakeVectorDataset(64, 8, 13);
  const std::vector<std::vector<size_t>> blockings = {{1u << 20}, {1, 7, 64}};
  for (const std::vector<size_t>& blocks : blockings) {
    SCOPED_TRACE("first block " + std::to_string(blocks[0]));
    uint64_t hash = kFnvOffset;
    HashForwardAllRows(*MakeMiniVgg(3), images, blocks, &hash);
    HashForwardAllRows(*MakeMiniResNet(5), images, blocks, &hash);
    HashForwardAllRows(*MakeTinyMlp(8, 7), vectors, blocks, &hash);
    EXPECT_EQ(hash, 0x241830acb9f3e09bull) << std::hex << "got 0x" << hash;
  }
}

}  // namespace
}  // namespace nn
}  // namespace deepeverest
