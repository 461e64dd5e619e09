// Kernel microbench: times every KernelTable entry in each dispatch mode the
// host has (best of DE_BENCH_KERNEL_REPS calls) and records, per kernel, the
// items and bytes one call moves and how many modes' output differs bitwise
// from the scalar table's. Usage: bench_kernels [out.json]
//
// Items are rows for the aggregations, multiply-accumulates for conv2d_hwc
// and values otherwise; bytes are bytes read plus bytes written. The
// bulk-unpack and fused-select rows run over one packed array of
// DE_BENCH_KERNEL_COUNT values. The conv2d_hwc rows run each MiniVgg
// convolution shape (3x3 kernel) over a batch of 64 images.
//
// The compute_layer rows time whole forward passes through the engine:
// one InferenceEngine::ComputeLayer call of n inputs on a model's late
// activation layer (TinyMlp at n = 8, MiniVgg at n = 16), in the active
// dispatch mode only, reported as ns per input. Their forward_mismatches
// counter is the number of the call's rows whose bits differ from the same
// input run alone (n = 1).
//
// Scale knobs (the default block is L2-cache-resident on purpose: NTA rounds
// feed the aggregation kernels blocks bounded by the inference batch size,
// not whole-dataset sweeps, so ~1k rows x 256 neurons is the representative
// shape; raise DE_BENCH_KERNEL_ROWS to measure the DRAM-bound regime):
//   DE_BENCH_KERNEL_ROWS     rows per aggregation block        (default 1024)
//   DE_BENCH_KERNEL_NEURONS  values per row                    (default 256)
//   DE_BENCH_KERNEL_COUNT    values per bulk-unpack/select call (default 1<<22)
//   DE_BENCH_KERNEL_REPS     timed repetitions, best-of        (default 60)

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/bit_pack.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "data/dataset.h"
#include "kernels/kernels.h"
#include "nn/inference.h"
#include "nn/model_zoo.h"

namespace deepeverest {
namespace {

using kernels::AggKind;
using kernels::DispatchMode;
using kernels::KernelTable;

/// Images per timed conv2d_hwc call: one inference batch.
constexpr size_t kConvBatch = 64;

template <typename T>
std::string Bytes(const std::vector<T>& values, size_t count) {
  return std::string(reinterpret_cast<const char*>(values.data()),
                     count * sizeof(T));
}

/// Adds the cell of one kernel: `run(table)` makes one call, `output()` is
/// the bytes it produced.
template <typename Run, typename Output>
void Measure(const std::string& kernel, size_t reps, double items,
             double bytes, Run run, Output output) {
  bench::Cell& cell = bench::AddCell("kernels", "KernelTable", kernel, "");
  cell.counters = {{"items", items}, {"bytes", bytes}, {"mismatches", 0}};
  std::string scalar;
  for (const DispatchMode mode : {DispatchMode::kScalar, DispatchMode::kAvx2}) {
    if (mode == DispatchMode::kAvx2 && !kernels::Avx2Supported()) break;
    const KernelTable& table = kernels::GetKernelTable(mode);
    double best = 1e300;
    for (size_t r = 0; r < reps; ++r) {
      Stopwatch watch;
      run(table);
      best = std::min(best, watch.ElapsedSeconds());
    }
    cell.wall_s[table.name] = best;
    if (mode == DispatchMode::kScalar) {
      scalar = output();
    } else if (output() != scalar) {
      cell.counters["mismatches"] += 1;
    }
  }
}

/// Adds the cell of one engine call: ComputeLayer over `n` spread inputs of
/// `dataset` on `model`'s late activation layer, best of `reps`.
void MeasureForward(const std::string& name, const nn::Model& model,
                    const data::Dataset& dataset, size_t n, size_t reps) {
  nn::InferenceEngine engine(&model, &dataset, /*batch_size=*/64);
  const int layer = model.activation_layers().back();
  std::vector<uint32_t> ids(n);
  for (size_t i = 0; i < n; ++i) {
    ids[i] = static_cast<uint32_t>(i * 7919 % dataset.size());
  }
  std::vector<std::vector<float>> rows;
  double best = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    Stopwatch watch;
    DE_CHECK(engine.ComputeLayer(ids, layer, &rows).ok());
    best = std::min(best, watch.ElapsedSeconds());
  }
  double mismatches = 0;
  std::vector<std::vector<float>> single;
  for (size_t i = 0; i < n; ++i) {
    DE_CHECK(engine.ComputeLayer({ids[i]}, layer, &single).ok());
    if (single[0].size() != rows[i].size() ||
        std::memcmp(single[0].data(), rows[i].data(),
                    rows[i].size() * sizeof(float)) != 0) {
      mismatches += 1;
    }
  }
  bench::Cell& cell = bench::AddCell("kernels", "InferenceEngine", name, "");
  cell.counters = {{"items", 1.0 * n}, {"forward_mismatches", mismatches}};
  cell.wall_s[std::string(kernels::Active().name) + "_ns_per_input"] =
      best / static_cast<double>(n) * 1e9;
}

const char* AggName(AggKind kind) {
  switch (kind) {
    case AggKind::kL1:
      return "l1";
    case AggKind::kL2:
      return "l2";
    case AggKind::kLInf:
      return "linf";
    case AggKind::kWeightedL2:
      return "weighted_l2";
  }
  return "?";
}

void Run(int argc, char** argv) {
  const auto rows =
      static_cast<size_t>(bench::EnvInt("DE_BENCH_KERNEL_ROWS", 1024));
  const auto neurons =
      static_cast<size_t>(bench::EnvInt("DE_BENCH_KERNEL_NEURONS", 256));
  const auto count =
      static_cast<size_t>(bench::EnvInt("DE_BENCH_KERNEL_COUNT", 1 << 22));
  const auto reps =
      static_cast<size_t>(bench::EnvInt("DE_BENCH_KERNEL_REPS", 60));

  std::mt19937_64 rng(42);
  std::uniform_real_distribution<float> dist(-4.0f, 4.0f);
  std::uniform_real_distribution<double> wdist(0.0, 2.0);

  // Shared aggregation workload: a contiguous block of `rows` rows.
  std::vector<float> block(rows * neurons);
  for (float& v : block) v = dist(rng);
  std::vector<float> target(neurons);
  for (float& v : target) v = dist(rng);
  std::vector<double> weights(neurons);
  for (double& v : weights) v = wdist(rng);

  // Bulk-unpack workload (4 bits = the NPI default of 16 partitions, plus a
  // straddling width that exercises the scalar fallback inside either table).
  // The fused select reads the straddling widths the NPI uses at 32 and 128
  // partitions (5 and 7 bits).
  PackedIntArray packed4(count, /*bits=*/4);
  PackedIntArray packed5(count, /*bits=*/5);
  PackedIntArray packed7(count, /*bits=*/7);
  for (size_t i = 0; i < count; ++i) {
    packed4.Set(i, rng() & 0xf);
    packed5.Set(i, rng() & 0x1f);
    packed7.Set(i, rng() & 0x7f);
  }

  // ---- batched aggregation (abs-diff and value forms, all kinds) ----
  std::vector<double> out(rows);
  const auto out_bytes = [&] { return Bytes(out, rows); };
  const double agg_bytes =
      static_cast<double>(rows) * neurons * sizeof(float) +
      static_cast<double>(rows) * sizeof(double);
  for (int k = 0; k < kernels::kNumAggKinds; ++k) {
    const std::string name = AggName(static_cast<AggKind>(k));
    Measure("abs_diff_" + name, reps, rows, agg_bytes,
            [&](const KernelTable& table) {
              table.abs_diff_agg[k](block.data(), neurons, rows,
                                    target.data(), weights.data(), neurons,
                                    out.data());
            },
            out_bytes);
    Measure("value_" + name, reps, rows, agg_bytes,
            [&](const KernelTable& table) {
              table.value_agg[k](block.data(), neurons, rows, weights.data(),
                                 neurons, out.data());
            },
            out_bytes);
  }

  // ---- bulk unpack ----
  std::vector<uint64_t> unpacked(count);
  for (const PackedIntArray* packed : {&packed4, &packed7}) {
    const int bits = packed->bits_per_value();
    Measure("unpack_b" + std::to_string(bits), reps, count,
            count * bits / 8.0 + count * sizeof(uint64_t),
            [&](const KernelTable& table) {
              table.unpack(packed->words().data(), packed->words().size(),
                           bits, 0, count, unpacked.data());
            },
            [&] { return Bytes(unpacked, count); });
  }

  // ---- fused select (getInputIDs over one PID row) ----
  std::vector<uint32_t> selected(count);
  size_t found = 0;
  for (const PackedIntArray* packed : {&packed5, &packed7}) {
    const int bits = packed->bits_per_value();
    const uint64_t value = 3;  // one partition id; ~1/2^bits of the values
    // Bytes: the packed row read once, plus the matching ids written.
    const double select_bytes =
        count * bits / 8.0 +
        count * sizeof(uint32_t) / static_cast<double>(1u << bits);
    Measure("select_b" + std::to_string(bits), reps, count, select_bytes,
            [&](const KernelTable& table) {
              found = table.select_eq(packed->words().data(),
                                      packed->words().size(), bits, 0, count,
                                      value, selected.data());
            },
            [&] { return std::to_string(found) + Bytes(selected, found); });
  }

  // ---- IQA row packing: presence mask + compaction of the non-zeros ----
  {
    // Half the values exact zeros, like a ReLU layer's activations.
    std::vector<float> row(rows * neurons);
    for (size_t i = 0; i < row.size(); ++i) {
      row[i] = (rng() & 1) != 0 ? 0.0f : block[i];
    }
    std::vector<uint64_t> words((row.size() + 63) / 64);
    std::vector<float> packed(row.size());
    size_t stored = 0;
    Measure("pack_nonzero", reps, row.size(),
            row.size() * (sizeof(float) * 1.5 + 1.0 / 8.0),
            [&](const KernelTable& table) {
              stored = table.nonzero_mask(row.data(), row.size(), words.data());
              table.compact(row.data(), row.size(), words.data(), stored,
                            packed.data());
            },
            [&] { return Bytes(words, words.size()) + Bytes(packed, stored); });
  }

  // ---- convolution: the four MiniVgg conv layers, one batch of images ----
  struct ConvShape {
    size_t height, width, in_channels, out_channels;
  };
  const ConvShape conv_shapes[] = {
      {32, 32, 3, 8}, {16, 16, 8, 12}, {8, 8, 12, 16}, {4, 4, 16, 24}};
  const size_t kernel = 3;
  for (const ConvShape& cs : conv_shapes) {
    const size_t in_size = cs.height * cs.width * cs.in_channels;
    const size_t out_size = cs.height * cs.width * cs.out_channels;
    // Post-ReLU-like inputs: non-negative, about half exact zeros.
    std::vector<float> images(kConvBatch * in_size);
    for (float& v : images) v = (rng() & 1) != 0 ? 0.0f : std::abs(dist(rng));
    std::vector<float> conv_weights(kernel * kernel * cs.in_channels *
                                    cs.out_channels);
    for (float& v : conv_weights) v = dist(rng) * 0.1f;
    std::vector<float> bias(cs.out_channels);
    for (float& v : bias) v = dist(rng) * 0.1f;
    std::vector<float> conv_out(kConvBatch * out_size);
    const double macs = static_cast<double>(kConvBatch) * cs.height *
                        cs.width * kernel * kernel * cs.in_channels *
                        cs.out_channels;
    const double conv_bytes =
        static_cast<double>(kConvBatch) * (in_size + out_size) *
            sizeof(float) +
        static_cast<double>(conv_weights.size()) * sizeof(float);
    Measure("conv2d_hwc_" + std::to_string(cs.height) + "x" +
                std::to_string(cs.width) + "x" +
                std::to_string(cs.in_channels) + "_to_" +
                std::to_string(cs.out_channels),
            reps, macs, conv_bytes,
            [&](const KernelTable& table) {
              for (size_t b = 0; b < kConvBatch; ++b) {
                table.conv2d_hwc(images.data() + b * in_size, cs.height,
                                 cs.width, cs.in_channels, conv_weights.data(),
                                 bias.data(), cs.out_channels, kernel,
                                 conv_out.data() + b * out_size);
              }
            },
            [&] { return Bytes(conv_out, conv_out.size()); });
  }

  // ---- engine forward passes: ComputeLayer on a late layer ----
  {
    Rng vec_rng(7);
    data::Dataset vectors("vectors", Shape({8}));
    for (int i = 0; i < 256; ++i) {
      Tensor input(Shape({8}));
      for (float& v : input.vec()) v = static_cast<float>(vec_rng.NextGaussian());
      vectors.Add(std::move(input), i % 4);
    }
    MeasureForward("compute_layer_tinymlp_n8", *nn::MakeTinyMlp(8, 7), vectors,
                   8, reps);
    data::SyntheticImageConfig config;
    config.num_inputs = 64;
    config.seed = 11;
    MeasureForward("compute_layer_minivgg_n16", *nn::MakeMiniVgg(3),
                   data::MakeSyntheticImages(config), 16, reps);
  }

  bench::PrintCells();
  if (argc > 1) {
    bench::WriteJson(argv[1], {{"rows", 1.0 * rows},
                               {"neurons", 1.0 * neurons},
                               {"unpack_count", 1.0 * count},
                               {"reps", 1.0 * reps}});
  }
}

}  // namespace
}  // namespace deepeverest

int main(int argc, char** argv) {
  deepeverest::Run(argc, argv);
  return 0;
}
