// QoS protection under saturation: an interactive session issues queries
// while many batch-class sessions keep an 8-worker service saturated with a
// closed-loop background load. The same workload runs twice — with the
// interactive session in its own class ("classes") and with every query
// submitted as a weight-1, deadline-free batch query ("one class", which
// the QoS queue serves as flat session round-robin with uniform batch
// linger) — and the bench reports per-class p50/p99 latency for both.
//
// The QoS contract this demonstrates:
//   - interactive p99 must be at least ~2x lower with classes than with one
//     class (strict class priority means an interactive query waits for one
//     in-flight query at most, instead of a round-robin turn behind every
//     batch session, and its inference seals partial device batches instead
//     of lingering);
//   - results stay bit-identical in both arms and per-query `inputs_run`
//     equals the sequential reference exactly (receipt-metered attribution
//     is schedule-independent);
//   - batch-class throughput pays only modestly (it keeps the leftover
//     capacity and still lingers for full batches).
//
// Scale knobs:
//   DE_BENCH_INPUTS               dataset size (default 300 here)
//   DE_BENCH_QOS_INTERACTIVE      interactive queries per mode (default 16)
//   DE_BENCH_QOS_BATCH_SESSIONS   background sessions (default 12)
//   DE_BENCH_QOS_OUTSTANDING      in-flight queries per session (default 4)
//   DE_BENCH_QOS_DEVICE_SCALE     device latency multiplier (default 4)
//   DE_BENCH_QOS_THINK_MS         interactive think time (default 5)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <future>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench_util/query_gen.h"
#include "bench_util/report.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/deepeverest.h"
#include "service/query_service.h"

namespace deepeverest {
namespace {

struct QosBenchConfig {
  int interactive_queries = 16;
  int batch_sessions = 12;
  int outstanding_per_session = 4;
  double device_scale = 4.0;
  double think_seconds = 0.005;
};

std::vector<core::QuerySpec> MakeTemplates(const bench::System& system,
                                           int count, int group_size,
                                           int k, uint64_t seed) {
  auto generator = system.NewEngine();
  Rng rng(seed);
  std::vector<core::QuerySpec> templates;
  templates.reserve(static_cast<size_t>(count));
  const bench_util::QueryType types[] = {bench_util::QueryType::kFireMax,
                                         bench_util::QueryType::kSimTop,
                                         bench_util::QueryType::kSimHigh};
  const bench_util::LayerDepth depths[] = {bench_util::LayerDepth::kEarly,
                                           bench_util::LayerDepth::kMid,
                                           bench_util::LayerDepth::kLate};
  for (int i = 0; i < count; ++i) {
    auto generated = bench_util::GenerateQuery(
        generator.get(), types[i % 3], depths[(i / 3) % 3], group_size, &rng);
    DE_CHECK(generated.ok()) << generated.status().ToString();
    core::QuerySpec query;
    if (generated->type == bench_util::QueryType::kFireMax) {
      query.kind = core::QuerySpec::Kind::kHighest;
    } else {
      query.kind = core::QuerySpec::Kind::kMostSimilar;
      query.target_id = generated->target_id;
    }
    query.layer = generated->group.layer;
    query.neurons = std::move(generated->group.neurons);
    query.k = k;
    templates.push_back(std::move(query));
  }
  return templates;
}

std::unique_ptr<core::DeepEverest> MakeEngine(const bench::System& system,
                                              storage::FileStore* store,
                                              int partitions = 0) {
  core::DeepEverestOptions options;
  options.batch_size = system.batch_size;
  // IQA off: cache state would make per-query inputs_run depend on the
  // schedule, which is exactly what the exactness check must exclude.
  options.enable_iqa = false;
  // The preemption arms sweep partition count as the bulk round-length
  // knob: fewer partitions = more inputs per NTA round = longer rounds.
  if (partitions > 0) options.num_partitions_override = partitions;
  auto engine = core::DeepEverest::Create(system.model.get(),
                                          system.dataset.get(), store,
                                          options);
  DE_CHECK(engine.ok()) << engine.status().ToString();
  system.ApplyCostModel((*engine)->inference());
  return std::move(engine.value());
}

/// Sequential canonical run of every template (tie-complete, no device
/// latency): the entries AND inputs_run every service run must reproduce.
std::vector<core::TopKResult> RunReference(
    core::DeepEverest* engine,
    const std::vector<core::QuerySpec>& templates) {
  std::vector<core::TopKResult> reference;
  reference.reserve(templates.size());
  for (const core::QuerySpec& query : templates) {
    auto result = engine->ExecuteSpec(query);
    DE_CHECK(result.ok()) << result.status().ToString();
    reference.push_back(std::move(result.value()));
  }
  return reference;
}

bool SameEntries(const core::TopKResult& a, const core::TopKResult& b) {
  if (a.entries.size() != b.entries.size()) return false;
  for (size_t i = 0; i < a.entries.size(); ++i) {
    if (a.entries[i].input_id != b.entries[i].input_id ||
        a.entries[i].value != b.entries[i].value) {
      return false;
    }
  }
  return true;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

struct ModeResult {
  std::vector<double> interactive_latencies;
  std::vector<double> batch_latencies;
  int mismatches = 0;
  int inputs_mismatches = 0;
  int64_t batch_completed = 0;
  /// Wall seconds of the whole loaded phase; the two arms run for
  /// different lengths (the interactive session finishes sooner with
  /// classes),
  /// so batch throughput must be compared as a rate.
  double wall_seconds = 0.0;
  service::ServiceStats stats;
};

ModeResult RunMode(const bench::System& system, const QosBenchConfig& config,
                   bool one_class,
                   const std::vector<core::QuerySpec>& batch_templates,
                   const std::vector<core::TopKResult>& batch_reference,
                   const std::vector<core::QuerySpec>& inter_templates,
                   const std::vector<core::TopKResult>& inter_reference) {
  bench::ScratchDir scratch(one_class ? "one_class" : "classes");
  auto store = storage::FileStore::Open(scratch.path());
  DE_CHECK(store.ok());
  auto engine = MakeEngine(system, &store.value());
  // Warm serving start, then make the simulated device a real latency
  // source.
  DE_CHECK(engine->PreprocessAllLayers().ok());
  engine->inference()->mutable_cost_model()->seconds_per_mac *=
      config.device_scale;
  engine->inference()->set_simulate_device_latency(true);

  service::QueryServiceOptions options;
  options.num_workers = 8;
  options.max_queue_depth = 4096;
  options.enable_cross_query_batching = true;
  auto service = service::QueryService::Create(engine.get(), options);
  DE_CHECK(service.ok()) << service.status().ToString();

  ModeResult out;
  Stopwatch wall;
  std::mutex result_mu;  // guards out.* from the background threads

  // Saturating closed-loop background: each batch session keeps
  // `outstanding_per_session` queries in the service at all times.
  std::atomic<bool> stop{false};
  std::vector<std::thread> background;
  background.reserve(static_cast<size_t>(config.batch_sessions));
  for (int s = 0; s < config.batch_sessions; ++s) {
    background.emplace_back([&, s] {
      struct InFlight {
        size_t template_index;
        Stopwatch latency;
        std::future<Result<core::TopKResult>> future;
      };
      std::deque<InFlight> inflight;
      auto harvest = [&](InFlight in_flight) {
        auto result = in_flight.future.get();
        const double latency = in_flight.latency.ElapsedSeconds();
        DE_CHECK(result.ok()) << result.status().ToString();
        const core::TopKResult& expected =
            batch_reference[in_flight.template_index];
        std::lock_guard<std::mutex> lock(result_mu);
        ++out.batch_completed;
        out.batch_latencies.push_back(latency);
        if (!SameEntries(expected, result.value())) ++out.mismatches;
        if (expected.stats.inputs_run != result->stats.inputs_run) {
          ++out.inputs_mismatches;
        }
      };
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t index =
            (static_cast<size_t>(s) * 31 + i) % batch_templates.size();
        core::QuerySpec query = batch_templates[index];
        query.session_id = static_cast<uint64_t>(1 + s);
        query.qos = QosClass::kBatch;
        InFlight in_flight;
        in_flight.template_index = index;
        in_flight.latency.Reset();
        auto submitted = (*service)->Submit(std::move(query));
        DE_CHECK(submitted.ok()) << submitted.status().ToString();
        in_flight.future = std::move(submitted.value());
        inflight.push_back(std::move(in_flight));
        ++i;
        while (inflight.size() >=
               static_cast<size_t>(config.outstanding_per_session)) {
          harvest(std::move(inflight.front()));
          inflight.pop_front();
        }
      }
      while (!inflight.empty()) {
        harvest(std::move(inflight.front()));
        inflight.pop_front();
      }
    });
  }

  // Let the backlog build, then run the interactive session in the
  // foreground: submit, wait, think, repeat — a human exploring neurons.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  for (int i = 0; i < config.interactive_queries; ++i) {
    const size_t index = static_cast<size_t>(i) % inter_templates.size();
    core::QuerySpec query = inter_templates[index];
    query.session_id = 1000;
    query.qos = one_class ? QosClass::kBatch : QosClass::kInteractive;
    Stopwatch latency;
    auto result = (*service)->Execute(std::move(query));
    const double seconds = latency.ElapsedSeconds();
    DE_CHECK(result.ok()) << result.status().ToString();
    out.interactive_latencies.push_back(seconds);
    if (!SameEntries(inter_reference[index], result.value())) {
      ++out.mismatches;
    }
    if (inter_reference[index].stats.inputs_run != result->stats.inputs_run) {
      ++out.inputs_mismatches;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(
        config.think_seconds));
  }

  stop.store(true);
  for (std::thread& thread : background) thread.join();
  (*service)->Drain();
  out.wall_seconds = wall.ElapsedSeconds();
  out.stats = (*service)->Snapshot();
  return out;
}

// ---------------------------------------------------------------------------
// Preemption arm: interactive p99 vs bulk round length.
//
// Two workers are kept saturated by best-effort bulk sessions while an
// interactive session probes in the foreground, across three bulk round
// lengths (partition counts: fewer partitions = longer NTA rounds). Three
// modes per round length:
//   - baseline: no bulk load at all — the floor interactive latency;
//   - preempt on: bulk parked between rounds the moment interactive work
//     arrives (the default service behaviour);
//   - preempt off: interactive waits for a full bulk query run-to-completion.
// The contract: with preemption on, interactive p99 stays near the bulk-free
// baseline regardless of round length, while preemption off degrades as
// rounds lengthen — and every bulk result stays bit-identical to the
// sequential reference with exact inputs_run, parked or not.

enum class PreemptArm { kBaseline, kPreemptOn, kPreemptOff };

struct PreemptArmOut {
  std::vector<double> interactive_latencies;
  int64_t parked_total = 0;
  int64_t resumed_total = 0;
  int mismatches = 0;
  int inputs_mismatches = 0;
};

PreemptArmOut RunPreemptionArm(
    const bench::System& system, const QosBenchConfig& config, int partitions,
    PreemptArm arm, const std::vector<core::QuerySpec>& bulk_templates,
    const std::vector<core::TopKResult>& bulk_reference,
    const std::vector<core::QuerySpec>& inter_templates,
    const std::vector<core::TopKResult>& inter_reference) {
  bench::ScratchDir scratch("preempt_arm");
  auto store = storage::FileStore::Open(scratch.path());
  DE_CHECK(store.ok());
  auto engine = MakeEngine(system, &store.value(), partitions);
  DE_CHECK(engine->PreprocessAllLayers().ok());
  engine->inference()->mutable_cost_model()->seconds_per_mac *=
      config.device_scale;
  engine->inference()->set_simulate_device_latency(true);

  service::QueryServiceOptions options;
  options.num_workers = 2;  // few enough for bulk to monopolise them
  options.max_queue_depth = 4096;
  options.enable_preemption = arm == PreemptArm::kPreemptOn;
  // Batching off: the arm isolates *scheduling* preemption. With the shared
  // batch scheduler on, interactive inference also queues behind bulk's
  // in-flight device batches — real, but a separate axis the main QoS bench
  // already measures (per-class linger + sealing).
  options.enable_cross_query_batching = false;
  auto service = service::QueryService::Create(engine.get(), options);
  DE_CHECK(service.ok()) << service.status().ToString();

  PreemptArmOut out;
  std::mutex result_mu;
  std::atomic<bool> stop{false};
  std::vector<std::thread> background;
  const int bulk_sessions = arm == PreemptArm::kBaseline ? 0 : 2;
  for (int s = 0; s < bulk_sessions; ++s) {
    background.emplace_back([&, s] {
      struct InFlight {
        size_t template_index;
        std::future<Result<core::TopKResult>> future;
      };
      std::deque<InFlight> inflight;
      auto harvest = [&](InFlight in_flight) {
        auto result = in_flight.future.get();
        DE_CHECK(result.ok()) << result.status().ToString();
        const core::TopKResult& expected =
            bulk_reference[in_flight.template_index];
        std::lock_guard<std::mutex> lock(result_mu);
        if (!SameEntries(expected, result.value())) ++out.mismatches;
        if (expected.stats.inputs_run != result->stats.inputs_run) {
          ++out.inputs_mismatches;
        }
      };
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t index =
            (static_cast<size_t>(s) * 13 + i) % bulk_templates.size();
        core::QuerySpec query = bulk_templates[index];
        query.session_id = static_cast<uint64_t>(1 + s);
        query.qos = QosClass::kBestEffort;
        auto submitted = (*service)->Submit(std::move(query));
        DE_CHECK(submitted.ok()) << submitted.status().ToString();
        inflight.push_back(InFlight{index, std::move(submitted.value())});
        ++i;
        while (inflight.size() >= 2) {
          harvest(std::move(inflight.front()));
          inflight.pop_front();
        }
      }
      while (!inflight.empty()) {
        harvest(std::move(inflight.front()));
        inflight.pop_front();
      }
    });
  }

  if (bulk_sessions > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  }
  for (int i = 0; i < config.interactive_queries; ++i) {
    const size_t index = static_cast<size_t>(i) % inter_templates.size();
    core::QuerySpec query = inter_templates[index];
    query.session_id = 1000;
    query.qos = QosClass::kInteractive;
    Stopwatch latency;
    auto result = (*service)->Execute(std::move(query));
    const double seconds = latency.ElapsedSeconds();
    DE_CHECK(result.ok()) << result.status().ToString();
    out.interactive_latencies.push_back(seconds);
    if (!SameEntries(inter_reference[index], result.value())) {
      ++out.mismatches;
    }
    if (inter_reference[index].stats.inputs_run != result->stats.inputs_run) {
      ++out.inputs_mismatches;
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(config.think_seconds));
  }

  stop.store(true);
  for (std::thread& thread : background) thread.join();
  (*service)->Drain();
  const service::ServiceStats stats = (*service)->Snapshot();
  out.parked_total = stats.parked_total;
  out.resumed_total = stats.resumed_total;
  DE_CHECK(stats.parked == 0) << "queries left parked after drain";
  return out;
}

void RunPreemptionBench(const bench::System& system,
                        const QosBenchConfig& config) {
  bench_util::PrintBanner(
      std::cout, "Preemptive execution: interactive p99 vs bulk round length",
      "2 workers, 2 best-effort sessions x 2 outstanding, " +
          std::to_string(config.interactive_queries) +
          " interactive queries per arm");

  // Heavy bulk work; light interactive probes (fresh generators per arm
  // sweep would re-randomise — one set shared across all partition counts).
  const std::vector<core::QuerySpec> bulk_templates =
      MakeTemplates(system, 6, /*group_size=*/8, /*k=*/20, 9301);
  const std::vector<core::QuerySpec> inter_templates =
      MakeTemplates(system, 6, /*group_size=*/4, /*k=*/10, 9402);

  bench_util::TablePrinter table(
      {"partitions", "baseline p99", "preempt-on p99", "preempt-off p99",
       "on/base", "off/base", "parked", "resumed"});
  int64_t parked_sum = 0;
  int mismatches = 0;
  int inputs_mismatches = 0;
  for (const int partitions : {2, 8, 32}) {
    // Fresh reference per round length: entries are partition-invariant but
    // per-query inputs_run is not, and exactness is asserted on both.
    std::vector<core::TopKResult> bulk_reference, inter_reference;
    {
      bench::ScratchDir scratch("preempt_ref");
      auto store = storage::FileStore::Open(scratch.path());
      DE_CHECK(store.ok());
      auto engine = MakeEngine(system, &store.value(), partitions);
      DE_CHECK(engine->PreprocessAllLayers().ok());
      bulk_reference = RunReference(engine.get(), bulk_templates);
      inter_reference = RunReference(engine.get(), inter_templates);
    }
    PreemptArmOut arms[3];
    const PreemptArm kinds[3] = {PreemptArm::kBaseline, PreemptArm::kPreemptOn,
                                 PreemptArm::kPreemptOff};
    for (int a = 0; a < 3; ++a) {
      arms[a] = RunPreemptionArm(system, config, partitions, kinds[a],
                                 bulk_templates, bulk_reference,
                                 inter_templates, inter_reference);
      mismatches += arms[a].mismatches;
      inputs_mismatches += arms[a].inputs_mismatches;
    }
    parked_sum += arms[1].parked_total;
    const double base = Percentile(arms[0].interactive_latencies, 0.99);
    const double on = Percentile(arms[1].interactive_latencies, 0.99);
    const double off = Percentile(arms[2].interactive_latencies, 0.99);
    table.AddRow({std::to_string(partitions), bench_util::FormatSeconds(base),
                  bench_util::FormatSeconds(on), bench_util::FormatSeconds(off),
                  bench_util::FormatDouble(base > 0.0 ? on / base : 0.0, 2),
                  bench_util::FormatDouble(base > 0.0 ? off / base : 0.0, 2),
                  std::to_string(arms[1].parked_total),
                  std::to_string(arms[1].resumed_total)});
  }
  table.Print(std::cout);

  // The greppable line CI's smoke asserts on: at least one park happened and
  // every result (bulk and interactive, all arms) was bit-identical to the
  // sequential reference with exact inputs_run.
  std::printf("\nPREEMPTION_SMOKE: parked=%lld identical=%s\n",
              static_cast<long long>(parked_sum),
              (mismatches == 0 && inputs_mismatches == 0) ? "yes" : "no");
}

void Run() {
  bench::Scale scale = bench::GetScale();
  if (bench::EnvInt("DE_BENCH_INPUTS", 0) <= 0) {
    scale.vgg_inputs = 300;  // ratios, not absolute scale, are the point
  }
  QosBenchConfig config;
  config.interactive_queries = static_cast<int>(
      bench::EnvInt("DE_BENCH_QOS_INTERACTIVE", config.interactive_queries));
  config.batch_sessions = static_cast<int>(
      bench::EnvInt("DE_BENCH_QOS_BATCH_SESSIONS", config.batch_sessions));
  config.outstanding_per_session = static_cast<int>(bench::EnvInt(
      "DE_BENCH_QOS_OUTSTANDING", config.outstanding_per_session));
  config.device_scale = static_cast<double>(
      bench::EnvInt("DE_BENCH_QOS_DEVICE_SCALE", 4));
  config.think_seconds =
      static_cast<double>(bench::EnvInt("DE_BENCH_QOS_THINK_MS", 5)) * 1e-3;

  const bench::System system = bench::MakeVggSystem(scale);
  bench_util::PrintBanner(
      std::cout, "Service QoS: interactive latency under batch saturation",
      system.name + ", 8 workers, " +
          std::to_string(config.batch_sessions) + " batch sessions x " +
          std::to_string(config.outstanding_per_session) + " outstanding, " +
          std::to_string(config.interactive_queries) +
          " interactive queries");

  // Heavy batch work; light interactive probes.
  const std::vector<core::QuerySpec> batch_templates =
      MakeTemplates(system, 18, /*group_size=*/8, /*k=*/20, 8101);
  const std::vector<core::QuerySpec> inter_templates =
      MakeTemplates(system, 8, /*group_size=*/4, /*k=*/10, 8202);

  // Canonical reference on its own engine (warm, no device latency).
  std::vector<core::TopKResult> batch_reference, inter_reference;
  {
    bench::ScratchDir scratch("qos_ref");
    auto store = storage::FileStore::Open(scratch.path());
    DE_CHECK(store.ok());
    auto engine = MakeEngine(system, &store.value());
    DE_CHECK(engine->PreprocessAllLayers().ok());
    batch_reference = RunReference(engine.get(), batch_templates);
    inter_reference = RunReference(engine.get(), inter_templates);
  }

  bench_util::TablePrinter table({"mode", "int p50", "int p99", "batch p50",
                                  "batch p99", "batch qps", "int fill",
                                  "batch fill", "sealed", "identical",
                                  "inputs_exact"});
  double p99_one_class = 0.0, p99_classes = 0.0;
  for (const bool one_class : {true, false}) {
    const ModeResult mode =
        RunMode(system, config, one_class, batch_templates, batch_reference,
                inter_templates, inter_reference);
    const double p99 = Percentile(mode.interactive_latencies, 0.99);
    (one_class ? p99_one_class : p99_classes) = p99;
    const auto& interactive_stats =
        mode.stats.per_class[QosIndex(QosClass::kInteractive)];
    const auto& batch_stats =
        mode.stats.per_class[QosIndex(QosClass::kBatch)];
    table.AddRow(
        {one_class ? "one class" : "classes",
         bench_util::FormatSeconds(Percentile(mode.interactive_latencies,
                                              0.50)),
         bench_util::FormatSeconds(p99),
         bench_util::FormatSeconds(Percentile(mode.batch_latencies, 0.50)),
         bench_util::FormatSeconds(Percentile(mode.batch_latencies, 0.99)),
         bench_util::FormatDouble(
             mode.wall_seconds > 0.0
                 ? static_cast<double>(mode.batch_completed) /
                       mode.wall_seconds
                 : 0.0,
             1),
         // With one class the interactive session's inference is batch
         // class, so there is no interactive fill to report.
         one_class ? "-"
                   : bench_util::FormatDouble(interactive_stats.batch_fill, 2),
         bench_util::FormatDouble(batch_stats.batch_fill, 2),
         std::to_string(mode.stats.batching.sealed_by_interactive),
         mode.mismatches == 0
             ? "yes"
             : ("NO (" + std::to_string(mode.mismatches) + ")"),
         mode.inputs_mismatches == 0
             ? "yes"
             : ("NO (" + std::to_string(mode.inputs_mismatches) + ")")});
  }
  table.Print(std::cout);

  if (p99_classes > 0.0) {
    const double ratio = p99_one_class / p99_classes;
    std::printf(
        "\nQoS protection: interactive p99 %.1fx lower, classes vs one class "
        "(%.1f ms -> %.1f ms)%s\n",
        ratio, p99_one_class * 1e3, p99_classes * 1e3,
        ratio >= 2.0 ? "" : "  [WARNING: below the 2x target]");
  }

  RunPreemptionBench(system, config);
}

}  // namespace
}  // namespace deepeverest

int main() {
  deepeverest::Run();
  return 0;
}
