// Kernel-level microbench + parity harness (pmembench-style: one binary,
// deterministic workload, machine-readable JSON out).
//
// Unlike the other bench binaries this one is self-contained — no Google
// Benchmark — because CI's kernel-bench smoke and reproduce/run_kernel_bench.sh
// must run everywhere the library builds. It times every KernelTable entry
// under both dispatch modes (when the CPU has AVX2), asserts bitwise
// scalar-vs-AVX2 parity on the measured outputs, and prints one JSON object
// with rows/s (or values/s), effective GB/s and the per-kernel speedup.
//
// Exit status: 0 on success, 1 on any parity mismatch (CI fails the smoke).
//
// The bulk-unpack and fused-select rows run over one packed array of
// DE_BENCH_KERNEL_COUNT values and report values/s. The conv2d_hwc rows run
// each MiniVgg convolution shape (3x3 kernel) over a batch of 64 images and
// report multiply-accumulates/s.
//
// Env knobs (the default block is L2-cache-resident on purpose: NTA rounds
// feed the aggregation kernels blocks bounded by the inference batch size,
// not whole-dataset sweeps, so ~1k rows x 256 neurons is the representative
// shape; crank DE_BENCH_KERNEL_ROWS up to measure the DRAM-bound regime):
//   DE_BENCH_KERNEL_ROWS     rows per aggregation block        (default 1024)
//   DE_BENCH_KERNEL_NEURONS  values per row                    (default 256)
//   DE_BENCH_KERNEL_COUNT    values per bulk-unpack/select call (default 1<<22)
//   DE_BENCH_KERNEL_REPS     timed repetitions, best-of        (default 20)

#include <cinttypes>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "src/common/bit_pack.h"
#include "src/kernels/kernels.h"

namespace {

using deepeverest::kernels::AggKind;
using deepeverest::kernels::DispatchMode;
using deepeverest::kernels::GetKernelTable;
using deepeverest::kernels::KernelTable;

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v || parsed == 0) {
    std::fprintf(stderr, "bench_kernels: ignoring bad %s='%s'\n", name, v);
    return fallback;
  }
  return static_cast<size_t>(parsed);
}

/// Images per timed conv2d_hwc call: one inference batch.
constexpr size_t kConvBatch = 64;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Result {
  std::string kernel;
  std::string mode;
  double items_per_s = 0.0;  // rows/s for agg, MAC/s for conv, else values/s
  double gb_per_s = 0.0;     // (bytes read + bytes written) / best time
  double best_seconds = 0.0;
};

/// Best-of-`reps` wall time of `fn()`; `bytes` and `items` describe ONE call.
template <typename Fn>
Result Time(const std::string& kernel, const std::string& mode, size_t reps,
            double items, double bytes, Fn fn) {
  double best = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    const double t0 = NowSeconds();
    fn();
    const double t1 = NowSeconds();
    if (t1 - t0 < best) best = t1 - t0;
  }
  Result res;
  res.kernel = kernel;
  res.mode = mode;
  res.best_seconds = best;
  res.items_per_s = items / best;
  res.gb_per_s = bytes / best / 1e9;
  return res;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool BitEqualF(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
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

}  // namespace

int main() {
  const size_t rows = EnvSize("DE_BENCH_KERNEL_ROWS", 1024);
  const size_t neurons = EnvSize("DE_BENCH_KERNEL_NEURONS", 256);
  const size_t count = EnvSize("DE_BENCH_KERNEL_COUNT", size_t{1} << 22);
  const size_t reps = EnvSize("DE_BENCH_KERNEL_REPS", 20);
  const bool avx2 = deepeverest::kernels::Avx2Supported();

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
  const int unpack_bits[] = {4, 7};
  const int select_bits[] = {5, 7};
  deepeverest::PackedIntArray packed4(count, /*bits=*/4);
  deepeverest::PackedIntArray packed5(count, /*bits=*/5);
  deepeverest::PackedIntArray packed7(count, /*bits=*/7);
  for (size_t i = 0; i < count; ++i) {
    packed4.Set(i, rng() & 0xf);
    packed5.Set(i, rng() & 0x1f);
    packed7.Set(i, rng() & 0x7f);
  }

  std::vector<Result> results;
  std::map<std::string, std::map<std::string, double>> times;  // kernel->mode
  bool parity_ok = true;
  auto check_parity = [&parity_ok](const char* what, bool ok) {
    if (!ok) {
      parity_ok = false;
      std::fprintf(stderr, "bench_kernels: PARITY MISMATCH in %s\n", what);
    }
  };

  const DispatchMode modes[] = {DispatchMode::kScalar, DispatchMode::kAvx2};
  const size_t num_modes = avx2 ? 2 : 1;

  // ---- batched aggregation (abs-diff and value forms, all kinds) ----
  std::vector<double> out_scalar(rows), out(rows);
  const double agg_bytes =
      static_cast<double>(rows) * neurons * sizeof(float) +
      static_cast<double>(rows) * sizeof(double);
  for (int k = 0; k < deepeverest::kernels::kNumAggKinds; ++k) {
    const AggKind kind = static_cast<AggKind>(k);
    for (size_t m = 0; m < num_modes; ++m) {
      const KernelTable& table = GetKernelTable(modes[m]);
      const std::string name = std::string("abs_diff_") + AggName(kind);
      results.push_back(Time(name, table.name, reps, rows, agg_bytes, [&] {
        table.abs_diff_agg[k](block.data(), neurons, rows, target.data(),
                              weights.data(), neurons, out.data());
      }));
      times[name][table.name] = results.back().best_seconds;
      if (m == 0) {
        out_scalar = out;
      } else {
        check_parity(name.c_str(), BitEqual(out_scalar, out));
      }
    }
    for (size_t m = 0; m < num_modes; ++m) {
      const KernelTable& table = GetKernelTable(modes[m]);
      const std::string name = std::string("value_") + AggName(kind);
      results.push_back(Time(name, table.name, reps, rows, agg_bytes, [&] {
        table.value_agg[k](block.data(), neurons, rows, weights.data(),
                           neurons, out.data());
      }));
      times[name][table.name] = results.back().best_seconds;
      if (m == 0) {
        out_scalar = out;
      } else {
        check_parity(name.c_str(), BitEqual(out_scalar, out));
      }
    }
  }

  // ---- bulk unpack ----
  std::vector<uint64_t> uout(count), uout_scalar(count);
  for (const int bits : unpack_bits) {
    const deepeverest::PackedIntArray& packed =
        bits == 4 ? packed4 : packed7;
    const double unpack_bytes =
        static_cast<double>(count) * bits / 8.0 +
        static_cast<double>(count) * sizeof(uint64_t);
    const std::string name = "unpack_b" + std::to_string(bits);
    for (size_t m = 0; m < num_modes; ++m) {
      const KernelTable& table = GetKernelTable(modes[m]);
      results.push_back(Time(name, table.name, reps, count, unpack_bytes, [&] {
        table.unpack(packed.words().data(), packed.words().size(), bits, 0,
                     count, uout.data());
      }));
      times[name][table.name] = results.back().best_seconds;
      if (m == 0) {
        uout_scalar = uout;
      } else {
        check_parity(name.c_str(),
                     std::memcmp(uout_scalar.data(), uout.data(),
                                 count * sizeof(uint64_t)) == 0);
      }
    }
  }

  // ---- fused select (getInputIDs over one PID row) ----
  std::vector<uint32_t> sel(count), sel_scalar(count);
  for (const int bits : select_bits) {
    const deepeverest::PackedIntArray& packed = bits == 5 ? packed5 : packed7;
    const uint64_t value = 3;  // one partition id; ~1/2^bits of the values
    size_t found = 0;
    size_t found_scalar = 0;
    const std::string name = "select_b" + std::to_string(bits);
    for (size_t m = 0; m < num_modes; ++m) {
      const KernelTable& table = GetKernelTable(modes[m]);
      // Bytes: the packed row read once, plus the matching ids written.
      const double select_bytes =
          static_cast<double>(count) * bits / 8.0 +
          static_cast<double>(count) / (1u << bits) * sizeof(uint32_t);
      results.push_back(Time(name, table.name, reps, count, select_bytes, [&] {
        found = table.select_eq(packed.words().data(), packed.words().size(),
                                bits, 0, count, value, sel.data());
      }));
      times[name][table.name] = results.back().best_seconds;
      if (m == 0) {
        found_scalar = found;
        sel_scalar = sel;
      } else {
        check_parity(name.c_str(),
                     found == found_scalar &&
                         std::memcmp(sel_scalar.data(), sel.data(),
                                     found * sizeof(uint32_t)) == 0);
      }
    }
  }

  // ---- IQA row packing: presence mask + compaction of the non-zeros ----
  {
    // Half the values exact zeros, like a ReLU layer's activations.
    std::vector<float> row(rows * neurons);
    for (size_t i = 0; i < row.size(); ++i) {
      row[i] = (rng() & 1) != 0 ? 0.0f : block[i];
    }
    std::vector<uint64_t> words((row.size() + 63) / 64);
    std::vector<float> packed(row.size()), packed_scalar;
    size_t stored = 0;
    const double pack_bytes = static_cast<double>(row.size()) *
                              (sizeof(float) * 1.5 + 1.0 / 8.0);
    for (size_t m = 0; m < num_modes; ++m) {
      const KernelTable& table = GetKernelTable(modes[m]);
      results.push_back(
          Time("pack_nonzero", table.name, reps, row.size(), pack_bytes, [&] {
            stored = table.nonzero_mask(row.data(), row.size(), words.data());
            table.compact(row.data(), row.size(), words.data(), stored,
                          packed.data());
          }));
      times["pack_nonzero"][table.name] = results.back().best_seconds;
      packed.resize(stored);
      if (m == 0) {
        packed_scalar = packed;
      } else {
        check_parity("pack_nonzero", BitEqualF(packed_scalar, packed));
      }
      packed.resize(row.size());
    }
  }

  // ---- convolution: the four MiniVgg conv layers, one batch of images ----
  {
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
      std::vector<float> conv_out(kConvBatch * out_size), conv_out_scalar;
      const double macs = static_cast<double>(kConvBatch) * cs.height *
                          cs.width * kernel * kernel * cs.in_channels *
                          cs.out_channels;
      const double conv_bytes =
          static_cast<double>(kConvBatch) * (in_size + out_size) *
              sizeof(float) +
          static_cast<double>(conv_weights.size()) * sizeof(float);
      const std::string name =
          "conv2d_hwc_" + std::to_string(cs.height) + "x" +
          std::to_string(cs.width) + "x" + std::to_string(cs.in_channels) +
          "_to_" + std::to_string(cs.out_channels);
      for (size_t m = 0; m < num_modes; ++m) {
        const KernelTable& table = GetKernelTable(modes[m]);
        results.push_back(Time(name, table.name, reps, macs, conv_bytes, [&] {
          for (size_t b = 0; b < kConvBatch; ++b) {
            table.conv2d_hwc(images.data() + b * in_size, cs.height, cs.width,
                             cs.in_channels, conv_weights.data(), bias.data(),
                             cs.out_channels, kernel,
                             conv_out.data() + b * out_size);
          }
        }));
        times[name][table.name] = results.back().best_seconds;
        if (m == 0) {
          conv_out_scalar = conv_out;
        } else {
          check_parity(name.c_str(), BitEqualF(conv_out_scalar, conv_out));
        }
      }
    }
  }

  // ---- JSON report ----
  char datebuf[32];
  const std::time_t now = std::time(nullptr);
  std::strftime(datebuf, sizeof(datebuf), "%Y-%m-%d", std::gmtime(&now));
  std::printf("{\n");
  std::printf("  \"bench\": \"bench_kernels\",\n");
  std::printf("  \"date\": \"%s\",\n", datebuf);
  std::printf("  \"avx2_supported\": %s,\n", avx2 ? "true" : "false");
  std::printf("  \"workload\": {\"rows\": %zu, \"neurons\": %zu, "
              "\"unpack_count\": %zu, \"reps\": %zu},\n",
              rows, neurons, count, reps);
  std::printf("  \"gb_per_s_definition\": "
              "\"(bytes read + bytes written) / best wall time\",\n");
  std::printf("  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::printf("    {\"kernel\": \"%s\", \"mode\": \"%s\", "
                "\"items_per_s\": %.6g, \"gb_per_s\": %.4f, "
                "\"best_seconds\": %.6g}%s\n",
                r.kernel.c_str(), r.mode.c_str(), r.items_per_s, r.gb_per_s,
                r.best_seconds, i + 1 < results.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"speedup_avx2_vs_scalar\": {");
  if (avx2) {
    bool first = true;
    for (const auto& entry : times) {
      const auto& by_mode = entry.second;
      if (by_mode.count("scalar") == 0 || by_mode.count("avx2") == 0) continue;
      std::printf("%s\n    \"%s\": %.2f", first ? "" : ",",
                  entry.first.c_str(),
                  by_mode.at("scalar") / by_mode.at("avx2"));
      first = false;
    }
    std::printf("\n  ");
  }
  std::printf("},\n");
  std::printf("  \"parity\": \"%s\"\n", parity_ok ? "ok" : "MISMATCH");
  std::printf("}\n");

  return parity_ok ? 0 : 1;
}
