// Reproduces **Table 1**: query-time breakdown for the baselines on a
// top-k most-similar query (SimHigh, |G| = 3, late layer). The paper's
// point: DNN inference dominates end-to-end time for every method that
// does not reduce the number of inputs fed to the DNN — ReprocessAll, CTA,
// k-d tree, and ball tree all cost (almost exactly) the same.
#include <benchmark/benchmark.h>

#include <iostream>

#include "baselines/cta.h"
#include "baselines/kd_tree.h"
#include "baselines/layer_scan_engine.h"
#include "bench/bench_common.h"
#include "bench_util/query_gen.h"
#include "bench_util/report.h"
#include "common/stopwatch.h"
#include "core/nta.h"

namespace deepeverest {
namespace {

struct Row {
  std::string method;
  double total_seconds = 0.0;
  double inference_seconds = 0.0;
};

std::vector<Row>& Rows() {
  static auto& rows = *new std::vector<Row>();
  return rows;
}

bench::System& TheSystem() {
  static auto& system = *new bench::System(
      bench::MakeResnetSystem(bench::GetScale()));
  return system;
}

bench_util::GeneratedQuery& TheQuery() {
  static auto& query = *new bench_util::GeneratedQuery([] {
    auto engine = TheSystem().NewEngine();
    Rng rng(55);
    auto q = bench_util::GenerateQuery(engine.get(),
                                       bench_util::QueryType::kSimHigh,
                                       bench_util::LayerDepth::kLate, 3, &rng);
    DE_CHECK(q.ok()) << q.status().ToString();
    return *q;
  }());
  return query;
}

/// Computes the layer's activation matrix (this is the inference cost every
/// method pays) and times it separately.
storage::LayerActivationMatrix ComputeMatrixTimed(nn::InferenceEngine* engine,
                                                  int layer,
                                                  double* inference_seconds) {
  Stopwatch watch;
  auto matrix = baselines::ComputeLayerMatrix(engine, layer);
  DE_CHECK(matrix.ok()) << matrix.status().ToString();
  *inference_seconds = watch.ElapsedSeconds();
  return std::move(matrix).value();
}

void BM_Method(benchmark::State& state, const std::string& method) {
  const bench_util::GeneratedQuery& query = TheQuery();
  const int k = 20;
  for (auto _ : state) {
    auto engine = TheSystem().NewEngine();
    Stopwatch total;
    double inference_seconds = 0.0;
    storage::LayerActivationMatrix matrix = ComputeMatrixTimed(
        engine.get(), query.group.layer, &inference_seconds);
    std::vector<float> target_acts;
    for (const int64_t neuron : query.group.neurons) {
      target_acts.push_back(
          matrix.At(query.target_id, static_cast<uint64_t>(neuron)));
    }

    if (method == "ReprocessAll") {
      benchmark::DoNotOptimize(core::ScanMostSimilar(
          matrix, query.group.neurons, target_acts, k, core::L2Distance(),
          true, query.target_id));
    } else if (method == "CTA [11]") {
      benchmark::DoNotOptimize(baselines::CtaMostSimilar(
          matrix, query.group.neurons, target_acts, k, core::L2Distance(),
          true, query.target_id));
    } else if (method == "K-D Tree [7]") {
      // The tree can only be built *after* the group's activations exist.
      baselines::KdTree tree(
          baselines::MakePointMatrix(matrix, query.group.neurons));
      benchmark::DoNotOptimize(
          tree.Query(target_acts.data(), k, query.target_id));
    } else {  // Ball Tree [41]
      baselines::BallTree tree(
          baselines::MakePointMatrix(matrix, query.group.neurons));
      benchmark::DoNotOptimize(
          tree.Query(target_acts.data(), k, query.target_id));
    }
    Rows().push_back(Row{method, total.ElapsedSeconds(), inference_seconds});
  }
}

}  // namespace
}  // namespace deepeverest

int main(int argc, char** argv) {
  using namespace deepeverest;  // NOLINT
  benchmark::Initialize(&argc, argv);
  for (const char* method :
       {"ReprocessAll", "CTA [11]", "K-D Tree [7]", "Ball Tree [41]"}) {
    benchmark::RegisterBenchmark(("Table1/" + std::string(method)).c_str(),
                                 [method](benchmark::State& state) {
                                   BM_Method(state, method);
                                 })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  bench_util::PrintBanner(
      std::cout, "Table 1: query time breakdown (SimHigh, |G|=3, late layer)",
      "System: " + TheSystem().name + ", " +
          std::to_string(TheSystem().dataset->size()) +
          " inputs. Expected shape: DNN inference dominates every method.");
  bench_util::TablePrinter table(
      {"Method", "Total query time", "DNN inference time", "Inference share"});
  for (const auto& row : Rows()) {
    table.AddRow({row.method, bench_util::FormatSeconds(row.total_seconds),
                  bench_util::FormatSeconds(row.inference_seconds),
                  bench_util::FormatDouble(
                      100.0 * row.inference_seconds / row.total_seconds, 1) +
                      "%"});
  }
  table.Print(std::cout);
  return 0;
}
