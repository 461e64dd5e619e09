// Byte-identity of LayerIndex::Build against the per-neuron std::sort build
// it replaced: the column-block radix ordering must serialize to exactly the
// same bytes, on value sets full of ties, signed zeros, subnormals and
// infinities, through both the one-block (inline) and the many-block
// (threaded) column pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/bit_pack.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/serde.h"
#include "core/npi.h"

namespace deepeverest {
namespace core {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// The fields LayerIndex::Serialize writes, filled by the reference builds.
struct ReferenceIndex {
  uint32_t num_inputs_ = 0;
  int64_t num_neurons_ = 0;
  int num_partitions_ = 0;
  uint32_t mai_count_ = 0;
  PackedIntArray pids_;
  std::vector<float> lower_;
  std::vector<float> upper_;
  std::vector<MaiEntry> mai_;

  size_t BoundIndex(int64_t neuron, uint32_t pid) const {
    return static_cast<size_t>(neuron) * num_partitions_ + pid;
  }

  /// Same layout as LayerIndex::Serialize.
  std::vector<uint8_t> Serialize() const {
    BinaryWriter writer;
    writer.WriteU32(0xDEE71DE8);
    writer.WriteU32(num_inputs_);
    writer.WriteI64(num_neurons_);
    writer.WriteI32(num_partitions_);
    writer.WriteU32(mai_count_);
    writer.WriteF32Vector(lower_);
    writer.WriteF32Vector(upper_);
    writer.WriteU64Vector(pids_.words());
    std::vector<float> mai_acts(mai_.size());
    std::vector<uint32_t> mai_ids(mai_.size());
    for (size_t i = 0; i < mai_.size(); ++i) {
      mai_acts[i] = mai_[i].activation;
      mai_ids[i] = mai_[i].input_id;
    }
    writer.WriteF32Vector(mai_acts);
    writer.WriteU32Vector(mai_ids);
    return writer.TakeBuffer();
  }
};

/// The equi-depth build before the column pass, verbatim: one std::sort per
/// neuron by (activation desc, id asc) over the row-major matrix.
Result<ReferenceIndex> ReferenceEquiDepth(
    const storage::LayerActivationMatrix& acts,
    const LayerIndexConfig& config) {
  ReferenceIndex index;
  index.num_inputs_ = acts.num_inputs;
  index.num_neurons_ = static_cast<int64_t>(acts.num_neurons);
  index.mai_count_ = static_cast<uint32_t>(
      config.mai_ratio * static_cast<double>(acts.num_inputs));
  if (index.mai_count_ > acts.num_inputs) index.mai_count_ = acts.num_inputs;

  const uint32_t rest =
      acts.num_inputs - index.mai_count_;  // inputs outside MAI
  int num_partitions = config.num_partitions;
  if (index.mai_count_ > 0) {
    const int max_parts = 1 + static_cast<int>(rest);  // MAI + one per input
    num_partitions = std::min(num_partitions, max_parts);
  } else {
    num_partitions = std::min(
        num_partitions, static_cast<int>(acts.num_inputs));
  }
  index.num_partitions_ = num_partitions;

  std::vector<uint32_t> sizes(static_cast<size_t>(num_partitions), 0);
  {
    uint32_t first = 0;
    int equi_parts = num_partitions;
    if (index.mai_count_ > 0) {
      sizes[0] = index.mai_count_;
      first = 1;
      equi_parts = num_partitions - 1;
    }
    if (equi_parts > 0) {
      const uint32_t base = rest / static_cast<uint32_t>(equi_parts);
      const uint32_t extra = rest % static_cast<uint32_t>(equi_parts);
      for (int p = 0; p < equi_parts; ++p) {
        sizes[first + static_cast<size_t>(p)] =
            base + (static_cast<uint32_t>(p) < extra ? 1 : 0);
      }
    } else if (index.mai_count_ > 0 && rest > 0) {
      return Status::Internal("partition sizing overflow");
    }
  }

  const size_t total_slots =
      static_cast<size_t>(index.num_neurons_) * index.num_inputs_;
  index.pids_ = PackedIntArray(
      total_slots, PackedIntArray::BitsFor(
                       static_cast<uint64_t>(num_partitions)));
  index.lower_.assign(
      static_cast<size_t>(index.num_neurons_) * num_partitions, kInf);
  index.upper_.assign(
      static_cast<size_t>(index.num_neurons_) * num_partitions, -kInf);
  index.mai_.resize(static_cast<size_t>(index.num_neurons_) *
                    index.mai_count_);

  std::vector<uint32_t> order(acts.num_inputs);
  for (int64_t neuron = 0; neuron < index.num_neurons_; ++neuron) {
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const float va = acts.At(a, static_cast<uint64_t>(neuron));
      const float vb = acts.At(b, static_cast<uint64_t>(neuron));
      if (va != vb) return va > vb;
      return a < b;
    });

    size_t rank = 0;
    for (int pid = 0; pid < num_partitions; ++pid) {
      const size_t bound_idx =
          index.BoundIndex(neuron, static_cast<uint32_t>(pid));
      for (uint32_t j = 0; j < sizes[static_cast<size_t>(pid)]; ++j, ++rank) {
        const uint32_t input_id = order[rank];
        const float act = acts.At(input_id, static_cast<uint64_t>(neuron));
        index.pids_.Set(
            static_cast<size_t>(neuron) * index.num_inputs_ + input_id,
            static_cast<uint64_t>(pid));
        if (j == 0) index.upper_[bound_idx] = act;
        index.lower_[bound_idx] = act;
        if (pid == 0 && index.mai_count_ > 0) {
          index.mai_[static_cast<size_t>(neuron) * index.mai_count_ + j] =
              MaiEntry{act, input_id};
        }
      }
    }
  }
  return index;
}

/// The equi-width build before the column pass, verbatim (finite values
/// only: an infinite range made its pid cast undefined).
Result<ReferenceIndex> ReferenceEquiWidth(
    const storage::LayerActivationMatrix& acts,
    const LayerIndexConfig& config) {
  ReferenceIndex index;
  index.num_inputs_ = acts.num_inputs;
  index.num_neurons_ = static_cast<int64_t>(acts.num_neurons);
  index.mai_count_ = 0;
  const int num_partitions =
      std::min(config.num_partitions, static_cast<int>(acts.num_inputs));
  index.num_partitions_ = num_partitions;

  const size_t total_slots =
      static_cast<size_t>(index.num_neurons_) * index.num_inputs_;
  index.pids_ = PackedIntArray(
      total_slots,
      PackedIntArray::BitsFor(static_cast<uint64_t>(num_partitions)));
  index.lower_.assign(
      static_cast<size_t>(index.num_neurons_) * num_partitions, kInf);
  index.upper_.assign(
      static_cast<size_t>(index.num_neurons_) * num_partitions, -kInf);

  for (int64_t neuron = 0; neuron < index.num_neurons_; ++neuron) {
    float lo = acts.At(0, static_cast<uint64_t>(neuron));
    float hi = lo;
    for (uint32_t id = 1; id < acts.num_inputs; ++id) {
      const float v = acts.At(id, static_cast<uint64_t>(neuron));
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const float width = hi - lo;
    for (uint32_t id = 0; id < acts.num_inputs; ++id) {
      const float v = acts.At(id, static_cast<uint64_t>(neuron));
      int pid = 0;
      if (width > 0.0f) {
        pid = static_cast<int>((hi - v) / width *
                               static_cast<float>(num_partitions));
        pid = std::min(pid, num_partitions - 1);
      }
      index.pids_.Set(static_cast<size_t>(neuron) * index.num_inputs_ + id,
                      static_cast<uint64_t>(pid));
      const size_t bound_idx =
          index.BoundIndex(neuron, static_cast<uint32_t>(pid));
      index.lower_[bound_idx] = std::min(index.lower_[bound_idx], v);
      index.upper_[bound_idx] = std::max(index.upper_[bound_idx], v);
    }
  }
  return index;
}

/// A matrix whose neurons cycle through five value regimes: all-equal
/// columns, mixed +0.0/-0.0 (with ReLU-style zeros), a small set of special
/// values (signed zeros, subnormals, +-inf, +-FLT_MAX) full of ties,
/// continuous negatives and positives, and coarse quantized values.
/// `finite_range` swaps the infinities and +-FLT_MAX for small values so
/// every column's max - min stays finite (equi-width needs it).
storage::LayerActivationMatrix ParityMatrix(uint32_t n, uint64_t neurons,
                                            uint64_t seed, bool finite_range) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float big =
      finite_range ? 2.0f : std::numeric_limits<float>::max();
  const float inf = finite_range ? 5.0f : kInf;
  const std::vector<float> specials = {
      0.0f, -0.0f, denorm, -denorm, 1e-40f, -1e-40f, 1.0f,
      -1.0f, 3.5f, big, -big, inf, -inf};
  Rng rng(seed);
  auto m = storage::LayerActivationMatrix::Make(n, neurons);
  for (uint64_t neuron = 0; neuron < neurons; ++neuron) {
    const float level = rng.NextFloat(-4.0f, 4.0f);
    for (uint32_t i = 0; i < n; ++i) {
      float v = 0.0f;
      switch (neuron % 5) {
        case 0:
          v = level;
          break;
        case 1: {
          const float x = rng.NextFloat(-1.0f, 1.0f);
          v = x > 0.5f ? x : (rng.NextUint64(2) == 0 ? 0.0f : -0.0f);
          break;
        }
        case 2:
          v = specials[rng.NextUint64(specials.size())];
          break;
        case 3:
          v = rng.NextFloat(-10.0f, 10.0f);
          break;
        default:
          v = std::round(rng.NextFloat(-2.0f, 2.0f) * 4.0f) / 4.0f;
          break;
      }
      m.MutableRow(i)[neuron] = v;
    }
  }
  return m;
}

/// Build must agree with the reference: the same bytes, or the same error.
void ExpectParity(const storage::LayerActivationMatrix& acts,
                  const LayerIndexConfig& config,
                  const Result<ReferenceIndex>& reference) {
  Result<LayerIndex> index = LayerIndex::Build(acts, config);
  ASSERT_EQ(index.ok(), reference.ok()) << index.status().ToString();
  if (!reference.ok()) {
    EXPECT_EQ(index.status().code(), reference.status().code());
    return;
  }
  BinaryWriter writer;
  index->Serialize(&writer);
  EXPECT_EQ(writer.buffer(), reference->Serialize());
}

// A column block holds 64 Ki floats: shapes with more values than that
// span several blocks and take the threaded path; the rest run inline.
constexpr uint64_t kBlockFloats = 64 * 1024;

TEST(NpiBuildParityTest, EquiDepthGridIsByteIdentical) {
  const std::vector<uint32_t> inputs = {1, 2, 3, 17, 64, 200, 1000, 4097};
  const std::vector<uint64_t> neurons = {1, 7, 64, 67, 300};
  const std::vector<int> partitions = {1, 2, 3, 8, 16, 32};
  const std::vector<double> mai_ratios = {0.0, 0.05, 0.5, 1.0};
  int inline_shapes = 0;
  int blocked_shapes = 0;
  for (const uint32_t n : inputs) {
    for (const uint64_t width : neurons) {
      if (n * width > kBlockFloats) {
        ++blocked_shapes;
      } else {
        ++inline_shapes;
      }
      const auto acts = ParityMatrix(n, width, n * 131 + width, false);
      for (const int p : partitions) {
        for (const double mai : mai_ratios) {
          const LayerIndexConfig config{p, mai};
          SCOPED_TRACE("n=" + std::to_string(n) + " neurons=" +
                       std::to_string(width) + " p=" + std::to_string(p) +
                       " mai=" + std::to_string(mai));
          ExpectParity(acts, config, ReferenceEquiDepth(acts, config));
        }
      }
    }
  }
  EXPECT_GT(inline_shapes, 0);
  EXPECT_GT(blocked_shapes, 0);
}

TEST(NpiBuildParityTest, TallLayerIsByteIdentical) {
  // 10^5 inputs: one neuron's column alone exceeds a block.
  const auto acts = ParityMatrix(100000, 16, 7, false);
  for (const LayerIndexConfig& config :
       {LayerIndexConfig{16, 0.0}, LayerIndexConfig{16, 0.05},
        LayerIndexConfig{3, 0.01}}) {
    ExpectParity(acts, config, ReferenceEquiDepth(acts, config));
  }
}

TEST(NpiBuildParityTest, EquiWidthIsByteIdentical) {
  for (const uint32_t n : {1u, 3u, 64u, 1000u, 4097u}) {
    for (const uint64_t width : {1ull, 7ull, 67ull, 300ull}) {
      const auto acts = ParityMatrix(n, width, n * 17 + width, true);
      for (const int p : {1, 3, 16}) {
        LayerIndexConfig config{p, 0.0};
        config.scheme = PartitionScheme::kEquiWidth;
        SCOPED_TRACE("n=" + std::to_string(n) + " neurons=" +
                     std::to_string(width) + " p=" + std::to_string(p));
        ExpectParity(acts, config, ReferenceEquiWidth(acts, config));
      }
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace deepeverest
