// QoS protection under saturation. Usage: bench_service_qos [out.json]
//
// Figure "qos": an interactive session issues queries while many batch-class
// sessions keep an 8-worker service saturated with a closed-loop background
// load. The same workload runs twice — with the interactive session in its
// own class ("classes") and with every query submitted as a weight-1,
// deadline-free batch query ("one class", which the QoS queue serves as
// flat session round-robin with uniform batch linger). Strict class
// priority means an interactive query waits for one in-flight query at
// most, instead of a round-robin turn behind every batch session, and its
// inference seals partial device batches instead of lingering; so
// interactive p99 should be at least ~2x lower with classes, at a modest
// cost in batch throughput.
//
// Figure "preemption": interactive p99 against bulk round length. Two
// workers are kept saturated by best-effort bulk sessions while the
// interactive session probes, across three round lengths (partition count:
// fewer partitions = more inputs per NTA round = longer rounds), in three
// arms: no bulk load ("baseline"), bulk parked between rounds the moment
// interactive work arrives ("preempt on", the service default), and bulk
// run to completion ("preempt off"). A query parks only between rounds, so
// preemption keeps p99 near the baseline only where rounds are short: at 8
// and 32 partitions it sits well below "preempt off", while at 2 partitions,
// where a round is about half the dataset, on and off are alike.
//
// Every answer, in every arm, must be bit-identical to a sequential
// reference with exactly its `inputs_run` (receipt-metered attribution is
// schedule-independent): the `mismatches` counters count the exceptions.
//
// Scale knobs:
//   DE_BENCH_INPUTS               dataset size (default 300 here)
//   DE_BENCH_QOS_INTERACTIVE      interactive queries per arm (default 16)
//   DE_BENCH_QOS_BATCH_SESSIONS   background sessions (default 12)
//   DE_BENCH_QOS_OUTSTANDING      in-flight queries per session (default 4)
//   DE_BENCH_QOS_DEVICE_SCALE     device latency multiplier (default 4)
//   DE_BENCH_QOS_THINK_MS         interactive think time (default 5)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "bench_util/query_gen.h"
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
  int device_scale = 4;
  int think_ms = 5;
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
                                              int partitions) {
  core::DeepEverestOptions options;
  options.batch_size = system.batch_size;
  // IQA off: cache state would make per-query inputs_run depend on the
  // schedule, which is exactly what the exactness check must exclude.
  options.enable_iqa = false;
  if (partitions > 0) options.num_partitions_override = partitions;
  auto engine = core::DeepEverest::Create(system.model.get(),
                                          system.dataset.get(), store,
                                          options);
  DE_CHECK(engine.ok()) << engine.status().ToString();
  system.ApplyCostModel((*engine)->inference());
  DE_CHECK((*engine)->PreprocessAllLayers().ok());
  return std::move(engine.value());
}

/// Query templates and their sequential canonical answers (tie-complete,
/// no device latency): the entries AND inputs_run every service run must
/// reproduce.
struct Workload {
  std::vector<core::QuerySpec> templates;
  std::vector<core::TopKResult> reference;
};

Workload MakeWorkload(core::DeepEverest* engine,
                      std::vector<core::QuerySpec> templates) {
  Workload workload{std::move(templates), {}};
  for (const core::QuerySpec& query : workload.templates) {
    auto result = engine->ExecuteSpec(query);
    DE_CHECK(result.ok()) << result.status().ToString();
    workload.reference.push_back(std::move(result.value()));
  }
  return workload;
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

/// One loaded service run: `sessions` closed-loop background sessions keep
/// `outstanding` queries each in the service while one interactive session
/// submits, waits and thinks, as a human exploring neurons does.
struct Arm {
  int workers = 8;
  int partitions = 0;  // 0 = the selector's choice
  bool batching = true;
  bool preemption = true;
  int sessions = 0;
  int outstanding = 1;
  size_t session_stride = 1;  // template offset between sessions
  QosClass background = QosClass::kBatch;
  QosClass interactive = QosClass::kInteractive;
  int backlog_ms = 0;  // how long the background load builds first
};

/// Runs `arm` and adds its cell.
void RunArm(const bench::System& system, const QosBenchConfig& config,
            const Arm& arm, const Workload& background,
            const Workload& interactive, const std::string& figure,
            const std::string& row, const std::string& col) {
  bench::ScratchDir scratch("qos_arm");
  auto store = storage::FileStore::Open(scratch.path());
  DE_CHECK(store.ok());
  auto engine = MakeEngine(system, &store.value(), arm.partitions);
  // Warm serving start, then make the simulated device a real latency
  // source.
  engine->inference()->mutable_cost_model()->seconds_per_mac *=
      config.device_scale;
  engine->inference()->set_simulate_device_latency(true);

  service::QueryServiceOptions options;
  options.num_workers = arm.workers;
  options.max_queue_depth = 4096;
  options.enable_cross_query_batching = arm.batching;
  options.enable_preemption = arm.preemption;
  auto service = service::QueryService::Create(engine.get(), options);
  DE_CHECK(service.ok()) << service.status().ToString();

  std::mutex mu;  // guards the results below from the background threads
  std::vector<double> interactive_latencies, background_latencies;
  int64_t interactive_inputs_run = 0;
  int mismatches = 0;
  int inputs_mismatches = 0;
  const auto check = [&](const core::TopKResult& expected,
                         const core::TopKResult& got) {
    if (!SameEntries(expected, got)) ++mismatches;
    if (expected.stats.inputs_run != got.stats.inputs_run) {
      ++inputs_mismatches;
    }
  };
  Stopwatch wall;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int s = 0; s < arm.sessions; ++s) {
    threads.emplace_back([&, s] {
      struct InFlight {
        size_t template_index;
        Stopwatch latency;
        std::future<Result<core::TopKResult>> future;
      };
      std::deque<InFlight> inflight;
      const auto harvest = [&] {
        InFlight& head = inflight.front();
        auto result = head.future.get();
        const double latency = head.latency.ElapsedSeconds();
        DE_CHECK(result.ok()) << result.status().ToString();
        std::lock_guard<std::mutex> lock(mu);
        background_latencies.push_back(latency);
        check(background.reference[head.template_index], result.value());
        inflight.pop_front();
      };
      for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const size_t index = (static_cast<size_t>(s) * arm.session_stride + i) %
                             background.templates.size();
        core::QuerySpec query = background.templates[index];
        query.session_id = static_cast<uint64_t>(1 + s);
        query.qos = arm.background;
        inflight.push_back(InFlight{index, Stopwatch(), {}});
        auto submitted = (*service)->Submit(std::move(query));
        DE_CHECK(submitted.ok()) << submitted.status().ToString();
        inflight.back().future = std::move(submitted.value());
        while (inflight.size() >= static_cast<size_t>(arm.outstanding)) {
          harvest();
        }
      }
      while (!inflight.empty()) harvest();
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(arm.backlog_ms));
  for (int i = 0; i < config.interactive_queries; ++i) {
    const size_t index =
        static_cast<size_t>(i) % interactive.templates.size();
    core::QuerySpec query = interactive.templates[index];
    query.session_id = 1000;
    query.qos = arm.interactive;
    Stopwatch latency;
    auto result = (*service)->Execute(std::move(query));
    const double seconds = latency.ElapsedSeconds();
    DE_CHECK(result.ok()) << result.status().ToString();
    {
      std::lock_guard<std::mutex> lock(mu);
      interactive_latencies.push_back(seconds);
      interactive_inputs_run += result->stats.inputs_run;
      check(interactive.reference[index], result.value());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(config.think_ms));
  }
  stop.store(true);
  for (std::thread& thread : threads) thread.join();
  (*service)->Drain();
  const double wall_seconds = wall.ElapsedSeconds();
  DE_CHECK((*service)->Snapshot().parked == 0)
      << "queries left parked after drain";

  bench::Cell& cell = bench::AddCell(figure, system.name, row, col);
  cell.counters = {{"interactive_queries", 1.0 * config.interactive_queries},
                   {"interactive_inputs_run", 1.0 * interactive_inputs_run},
                   {"mismatches", 1.0 * mismatches},
                   {"inputs_run_mismatches", 1.0 * inputs_mismatches}};
  cell.wall_s = {{"interactive_p50", Percentile(interactive_latencies, 0.5)},
                 {"interactive_p99", Percentile(interactive_latencies, 0.99)}};
  if (!background_latencies.empty()) {
    cell.wall_s["background_p50"] = Percentile(background_latencies, 0.5);
    cell.wall_s["background_p99"] = Percentile(background_latencies, 0.99);
    // The arms run for different lengths, so throughput is a rate.
    cell.wall_s["background_queries_per_s"] =
        static_cast<double>(background_latencies.size()) / wall_seconds;
  }
}

/// Sequential references on their own engine (warm, no device latency).
std::pair<Workload, Workload> MakeWorkloads(
    const bench::System& system, int partitions,
    std::vector<core::QuerySpec> background,
    std::vector<core::QuerySpec> interactive) {
  bench::ScratchDir scratch("qos_ref");
  auto store = storage::FileStore::Open(scratch.path());
  DE_CHECK(store.ok());
  auto engine = MakeEngine(system, &store.value(), partitions);
  return {MakeWorkload(engine.get(), std::move(background)),
          MakeWorkload(engine.get(), std::move(interactive))};
}

void Run(int argc, char** argv) {
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
  config.device_scale = static_cast<int>(
      bench::EnvInt("DE_BENCH_QOS_DEVICE_SCALE", config.device_scale));
  config.think_ms =
      static_cast<int>(bench::EnvInt("DE_BENCH_QOS_THINK_MS", config.think_ms));
  const bench::System system = bench::MakeVggSystem(scale);

  // Heavy batch work; light interactive probes.
  const auto [batch, probes] = MakeWorkloads(
      system, 0, MakeTemplates(system, 18, /*group_size=*/8, /*k=*/20, 8101),
      MakeTemplates(system, 8, /*group_size=*/4, /*k=*/10, 8202));
  for (const bool one_class : {true, false}) {
    Arm arm;
    arm.sessions = config.batch_sessions;
    arm.outstanding = config.outstanding_per_session;
    arm.session_stride = 31;
    arm.interactive = one_class ? QosClass::kBatch : QosClass::kInteractive;
    arm.backlog_ms = 200;
    RunArm(system, config, arm, batch, probes, "qos",
           one_class ? "one class" : "classes", "");
  }

  // Heavy bulk work; light interactive probes, one set for every round
  // length. The references are per round length: entries are
  // partition-invariant but per-query inputs_run is not.
  const auto bulk_templates =
      MakeTemplates(system, 6, /*group_size=*/8, /*k=*/20, 9301);
  const auto probe_templates =
      MakeTemplates(system, 6, /*group_size=*/4, /*k=*/10, 9402);
  for (const int partitions : {2, 8, 32}) {
    const auto [bulk, preempt_probes] =
        MakeWorkloads(system, partitions, bulk_templates, probe_templates);
    for (const char* col : {"baseline", "preempt on", "preempt off"}) {
      Arm arm;
      arm.workers = 2;  // few enough for bulk to monopolise them
      arm.partitions = partitions;
      // Batching off: the arm isolates scheduling preemption. With the
      // shared batch scheduler on, interactive inference also queues behind
      // bulk's in-flight device batches — a separate axis the "qos" figure
      // measures.
      arm.batching = false;
      arm.preemption = std::string(col) == "preempt on";
      arm.sessions = std::string(col) == "baseline" ? 0 : 2;
      arm.outstanding = 2;
      arm.session_stride = 13;
      arm.background = QosClass::kBestEffort;
      arm.backlog_ms = arm.sessions > 0 ? 150 : 0;
      RunArm(system, config, arm, bulk, preempt_probes, "preemption",
             std::to_string(partitions), col);
    }
  }

  bench::PrintCells();
  if (argc > 1) {
    bench::WriteJson(
        argv[1],
        {{"inputs", 1.0 * scale.vgg_inputs},
         {"interactive_queries", 1.0 * config.interactive_queries},
         {"batch_sessions", 1.0 * config.batch_sessions},
         {"outstanding_per_session", 1.0 * config.outstanding_per_session},
         {"device_scale", 1.0 * config.device_scale},
         {"think_ms", 1.0 * config.think_ms}});
  }
}

}  // namespace
}  // namespace deepeverest

int main(int argc, char** argv) {
  deepeverest::Run(argc, argv);
  return 0;
}
