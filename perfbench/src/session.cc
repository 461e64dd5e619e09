// session_cold and session_warm: one closed-loop analyst driving the engine
// directly (DeepEverest::ExecuteSpec, or BeginSpec + QueryExecution::Step
// when traced) over MiniVgg and seeded synthetic images.
//
// A timed window runs whole passes over a fixed, seed-generated plan until
// --seconds of query time have passed (it stops at the pass boundary
// nearest to that). Every pass does identical work, so the counters of one
// pass (inputs run, rounds, batches, cache hits) must repeat exactly — across
// passes, between the untraced and traced windows, and across runs with the
// same seed (GuardCounters).
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/query_gen.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/deepeverest.h"
#include "data/dataset.h"
#include "nn/model_zoo.h"
#include "storage/file_store.h"
#include "verify.h"
#include "workloads.h"

namespace perfbench {

namespace de = deepeverest;
using de::Result;
using de::Status;

namespace {

constexpr uint64_t kModelSeed = 101;
constexpr int kBatchSize = 16;
constexpr int kTopK = 20;
/// GPU cost model calibration for MiniVgg (VGG16-on-CIFAR on a K80, as in
/// the paper-figure benches). Only nn.modeled_gpu_s uses it; no wall time
/// includes modeled time.
constexpr double kSecondsPerMac = 1.7e-9;

struct Sizes {
  uint32_t num_inputs = 1000;
  // session_cold: sessions per pass, queries per session.
  int sessions = 8;
  int queries_per_session = 60;
  // session_warm: targets per (layer, chain shape), queries per chain.
  int warm_targets = 5;
  int chain_length = 8;
};

/// session_cold runs on a smaller image set than session_warm: its query
/// latencies spread over three decades, so its median needs over a
/// thousand queries per window to repeat across seeds. At 400 images a
/// 20 s window held one or two passes (480 or 960 queries) on 4 vCPUs, and
/// query_p50_ms spread 0.26 (IQR/median) over ten seeds; at 200 images it
/// holds three passes and spread 0.11 over six. Warm queries are cheap
/// enough at 1000 images.
Sizes SizesFor(const RunConfig& config, bool cold) {
  Sizes sizes;
  if (cold) sizes.num_inputs = 200;
  if (config.tiny) {
    sizes.num_inputs = 96;
    sizes.sessions = 2;
    sizes.queries_per_session = 8;
    sizes.warm_targets = 1;
    sizes.chain_length = 4;
  }
  return sizes;
}

/// Model, seeded dataset, and the query plan: everything the program
/// receives, generated before any timed request.
struct Plan {
  de::nn::ModelPtr model;
  std::unique_ptr<de::data::Dataset> dataset;
  std::vector<int> layers;  // early, mid, late
  std::vector<de::core::QuerySpec> specs;
  /// session_cold: spec indices per session; session_warm: one list (the
  /// chains back to back).
  std::vector<std::vector<uint32_t>> sessions;
  uint64_t iqa_capacity_bytes = 0;
};

de::core::QuerySpec SpecFor(de::bench_util::QueryType type, int layer,
                            const std::vector<int64_t>& neurons,
                            uint32_t target) {
  de::core::QuerySpec spec;
  spec.k = kTopK;
  spec.layer = layer;
  spec.neurons = neurons;
  spec.qos = de::QosClass::kInteractive;
  if (type == de::bench_util::QueryType::kFireMax) {
    spec.kind = de::core::QuerySpec::Kind::kHighest;
  } else {
    spec.kind = de::core::QuerySpec::Kind::kMostSimilar;
    spec.target_id = target;
  }
  return spec;
}

de::bench_util::LayerDepth DepthOf(const Plan& plan, int layer) {
  if (layer == plan.layers[0]) return de::bench_util::LayerDepth::kEarly;
  if (layer == plan.layers[1]) return de::bench_util::LayerDepth::kMid;
  return de::bench_util::LayerDepth::kLate;
}

/// Bytes of IQA rows for every input of every touched layer (the cache's
/// own per-row accounting: payload + 64 bytes of bookkeeping).
uint64_t WorkingSetBytes(const Plan& plan) {
  uint64_t per_input = 0;
  for (int layer : plan.layers) {
    per_input += static_cast<uint64_t>(plan.model->NeuronCount(layer)) * 4 + 64;
  }
  return per_input * plan.dataset->size();
}

Result<Plan> MakePlan(const RunConfig& config, const Sizes& sizes, bool cold) {
  Plan plan;
  plan.model = de::nn::MakeMiniVgg(kModelSeed);
  de::data::SyntheticImageConfig images;
  images.num_inputs = sizes.num_inputs;
  images.seed = config.seed * 7919 + 17;
  plan.dataset = std::make_unique<de::data::Dataset>(
      de::data::MakeSyntheticImages(images));
  for (auto depth : {de::bench_util::LayerDepth::kEarly,
                     de::bench_util::LayerDepth::kMid,
                     de::bench_util::LayerDepth::kLate}) {
    plan.layers.push_back(de::bench_util::PickLayer(*plan.model, depth));
  }
  // Query generation runs inference on its own engine: setup, not measured.
  de::nn::InferenceEngine generator(plan.model.get(), plan.dataset.get(),
                                    kBatchSize);
  de::Rng rng(config.seed * 104729 + (cold ? 1 : 2));
  const de::bench_util::QueryType kTypes[] = {
      de::bench_util::QueryType::kFireMax, de::bench_util::QueryType::kSimTop,
      de::bench_util::QueryType::kSimHigh};
  const int kGroupSizes[] = {1, 3, 10};

  if (cold) {
    // §5.3 sessions: layer transitions 0.5 same / 0.3 previous / 0.2 new;
    // query type and group size cycle through all nine combinations. The
    // session shapes (layer sequences) are the same for every run seed, so
    // seeds differ in images, targets and neurons, not in how many queries
    // hit each layer.
    for (int s = 0; s < sizes.sessions; ++s) {
      de::bench_util::WorkloadSpec transitions;
      transitions.num_queries = sizes.queries_per_session;
      transitions.seed = 1000 + static_cast<uint64_t>(s);
      const std::vector<int> layer_seq =
          de::bench_util::GenerateLayerSequence(plan.layers, transitions);
      std::vector<uint32_t> session;
      for (int q = 0; q < sizes.queries_per_session; ++q) {
        const int combo = (q + s) % 9;
        const auto type = kTypes[combo / 3];
        const int layer = layer_seq[static_cast<size_t>(q)];
        DE_ASSIGN_OR_RETURN(
            de::bench_util::GeneratedQuery query,
            de::bench_util::GenerateQuery(&generator, type,
                                          DepthOf(plan, layer),
                                          kGroupSizes[combo % 3], &rng));
        session.push_back(static_cast<uint32_t>(plan.specs.size()));
        plan.specs.push_back(
            SpecFor(type, layer, query.group.neurons, query.target_id));
      }
      plan.sessions.push_back(std::move(session));
    }
    // IQA holds about a tenth of the touched layers' rows.
    plan.iqa_capacity_bytes = WorkingSetBytes(plan) / 10;
  } else {
    // §5.6 related-query chains: (5 neurons, 1 replaced per query) and
    // (10, 2), on fixed targets, in each of the early/mid/late layers.
    std::vector<uint32_t> pass;
    for (int layer : plan.layers) {
      for (const auto& [group_size, replace] :
           {std::pair<int, int>{5, 1}, std::pair<int, int>{10, 2}}) {
        for (int t = 0; t < sizes.warm_targets; ++t) {
          const uint32_t target =
              static_cast<uint32_t>(rng.NextUint64(plan.dataset->size()));
          DE_ASSIGN_OR_RETURN(
              std::vector<de::core::NeuronGroup> chain,
              de::bench_util::GenerateIqaSequence(&generator, target, layer,
                                                  group_size, replace,
                                                  sizes.chain_length, &rng));
          for (const de::core::NeuronGroup& group : chain) {
            pass.push_back(static_cast<uint32_t>(plan.specs.size()));
            plan.specs.push_back(SpecFor(de::bench_util::QueryType::kSimHigh,
                                         layer, group.neurons, target));
          }
        }
      }
    }
    plan.sessions.push_back(std::move(pass));
    // Room for every row of every touched layer: nothing is ever evicted.
    plan.iqa_capacity_bytes = WorkingSetBytes(plan);
  }
  return plan;
}

de::core::DeepEverestOptions EngineOptions(const Plan& plan) {
  de::core::DeepEverestOptions options;
  options.batch_size = kBatchSize;
  options.enable_iqa = true;
  options.iqa_capacity_bytes = plan.iqa_capacity_bytes;
  return options;
}

/// One engine over its own FileStore directory (removed on destruction).
struct EngineHandle {
  std::string dir;
  std::unique_ptr<de::storage::FileStore> store;
  std::unique_ptr<de::core::DeepEverest> engine;

  EngineHandle() = default;
  EngineHandle(const EngineHandle&) = delete;
  EngineHandle& operator=(const EngineHandle&) = delete;
  ~EngineHandle() {
    engine.reset();
    store.reset();
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

Status OpenEngine(const Plan& plan, const std::string& dir,
                  EngineHandle* handle) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  handle->dir = dir;
  DE_ASSIGN_OR_RETURN(de::storage::FileStore store,
                      de::storage::FileStore::Open(dir));
  handle->store = std::make_unique<de::storage::FileStore>(std::move(store));
  DE_ASSIGN_OR_RETURN(
      handle->engine,
      de::core::DeepEverest::Create(plan.model.get(), plan.dataset.get(),
                                    handle->store.get(), EngineOptions(plan)));
  handle->engine->inference()->mutable_cost_model()->seconds_per_mac =
      kSecondsPerMac;
  return Status::OK();
}

/// Counters of one pass. Every field must repeat exactly pass to pass.
struct PassCounters {
  int64_t queries = 0;
  int64_t inputs_run = 0;
  int64_t rounds = 0;
  int64_t terminated_early = 0;
  int64_t nn_inputs = 0;
  int64_t nn_batches = 0;
  int64_t iqa_hits = 0;
  int64_t iqa_misses = 0;
  int64_t iqa_evictions = 0;
  int64_t builds = 0;
  uint64_t index_bytes = 0;
  uint64_t full_bytes = 0;
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
  double modeled_gpu_s = 0.0;

  std::map<std::string, double> AsMap() const {
    return {{"queries", static_cast<double>(queries)},
            {"inputs_run", static_cast<double>(inputs_run)},
            {"rounds", static_cast<double>(rounds)},
            {"terminated_early", static_cast<double>(terminated_early)},
            {"nn_inputs", static_cast<double>(nn_inputs)},
            {"nn_batches", static_cast<double>(nn_batches)},
            {"iqa_hits", static_cast<double>(iqa_hits)},
            {"iqa_misses", static_cast<double>(iqa_misses)},
            {"iqa_evictions", static_cast<double>(iqa_evictions)},
            {"builds", static_cast<double>(builds)},
            {"index_bytes", static_cast<double>(index_bytes)},
            {"full_bytes", static_cast<double>(full_bytes)},
            {"bytes_written", static_cast<double>(bytes_written)}};
  }
};

/// Engine-level counters read before and after a pass (or a session).
struct EngineSample {
  de::nn::InferenceStats nn;
  de::core::IqaCache::Stats iqa;
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;

  static EngineSample Read(EngineHandle* h) {
    EngineSample s;
    s.nn = h->engine->inference()->stats();
    s.iqa = h->engine->iqa_cache()->stats();
    s.bytes_written = h->store->bytes_written();
    s.bytes_read = h->store->bytes_read();
    return s;
  }
};

/// Time measured inside a window: the benchmark's own spans around
/// QueryExecution::Step (traced windows only) and the program's spans
/// folded from each query's Trace.
struct LayerTimes {
  double step_s = 0.0;     // Steps that built no index
  double step_nn_s = 0.0;  // inference wall time inside those Steps
  double build_nn_s = 0.0;  // inference wall time inside Steps that built
  double ensure_build_s = 0.0;  // "index.ensure" spans that built
  std::vector<double> round_ms;  // "nta.round" spans
};

struct Window {
  std::vector<double> latency_ms;
  double query_s = 0.0;  // summed query time: the window's length
  double nn_busy_s = 0.0;
  int passes = 0;
  PassCounters first;
  LayerTimes layer;
  uint64_t iqa_bytes = 0;
  std::vector<Answer> answers;
  int64_t attempted = 0;
  int64_t failed = 0;
};

void FoldTrace(const de::Trace::Data& data, LayerTimes* times) {
  for (const de::TraceSpan& span : data.spans) {
    const double seconds = static_cast<double>(span.duration_nanos) * 1e-9;
    if (span.name == "nta.round") {
      times->round_ms.push_back(seconds * 1e3);
    } else if (span.name == "index.ensure") {
      for (const de::TraceAttr& attr : span.attrs) {
        if (attr.key == "built" && attr.int_value == 1) {
          times->ensure_build_s += seconds;
        }
      }
    }
  }
}

/// Runs one query: ExecuteSpec untraced, or BeginSpec + timed Steps with a
/// Trace attached when traced.
Result<de::core::TopKResult> RunQuery(de::core::DeepEverest* engine,
                                      const de::core::QuerySpec& spec,
                                      LayerTimes* traced) {
  if (traced == nullptr) return engine->ExecuteSpec(spec);
  de::core::QueryContext ctx;
  ctx.qos = spec.qos;
  ctx.trace =
      std::make_shared<de::Trace>(de::Trace::NextId(), /*max_spans=*/1 << 14);
  DE_ASSIGN_OR_RETURN(std::unique_ptr<de::core::QueryExecution> execution,
                      engine->BeginSpec(spec, &ctx));
  while (!execution->done()) {
    const bool was_indexed = engine->index_manager()->IsLoaded(spec.layer);
    const double nn_before = engine->inference()->stats().wall_seconds;
    const double t0 = NowSeconds();
    const Status stepped = execution->Step();
    const double step = NowSeconds() - t0;
    const double nn = engine->inference()->stats().wall_seconds - nn_before;
    if (!was_indexed && engine->index_manager()->IsLoaded(spec.layer)) {
      traced->build_nn_s += nn;
    } else {
      traced->step_s += step;
      traced->step_nn_s += nn;
    }
    if (!stepped.ok()) break;
  }
  Result<de::core::TopKResult> result = execution->TakeResult();
  ctx.trace->Finish();
  FoldTrace(ctx.trace->Snapshot(), traced);
  return result;
}

/// Runs `ids` in order on `handle`, appending to the window and the pass.
void RunQueries(const Plan& plan, const std::vector<uint32_t>& ids,
                EngineHandle* handle, bool traced, Window* window,
                PassCounters* pass, RunReport* report) {
  for (uint32_t id : ids) {
    const de::core::QuerySpec& spec = plan.specs[id];
    const double t0 = NowSeconds();
    Result<de::core::TopKResult> result = RunQuery(
        handle->engine.get(), spec, traced ? &window->layer : nullptr);
    const double seconds = NowSeconds() - t0;
    ++window->attempted;
    if (!result.ok()) {
      ++window->failed;
      report->Error("query " + spec.ToString() +
                    " failed: " + result.status().ToString());
      continue;
    }
    window->latency_ms.push_back(seconds * 1e3);
    window->query_s += seconds;
    const de::core::QueryStats& stats = result->stats;
    ++pass->queries;
    pass->inputs_run += stats.inputs_run;
    pass->rounds += stats.rounds;
    pass->terminated_early += stats.terminated_early ? 1 : 0;
    window->answers.push_back(
        Answer{id, stats.dataset_version, std::move(result->entries)});
  }
}

void AddEngineDelta(const EngineSample& before, const EngineSample& after,
                    Window* window, PassCounters* pass) {
  pass->nn_inputs += after.nn.inputs_run - before.nn.inputs_run;
  pass->nn_batches += after.nn.batches_run - before.nn.batches_run;
  pass->modeled_gpu_s +=
      after.nn.simulated_gpu_seconds - before.nn.simulated_gpu_seconds;
  pass->iqa_hits += after.iqa.hits - before.iqa.hits;
  pass->iqa_misses += after.iqa.misses - before.iqa.misses;
  pass->iqa_evictions += after.iqa.evictions - before.iqa.evictions;
  pass->bytes_written += after.bytes_written - before.bytes_written;
  pass->bytes_read += after.bytes_read - before.bytes_read;
  window->nn_busy_s += after.nn.wall_seconds - before.nn.wall_seconds;
}

/// Runs whole passes until the window's query time is nearest to
/// `seconds`, checking that every pass repeats the first one's counters.
Status RunWindow(double seconds,
                 const std::function<Status(PassCounters*)>& run_pass,
                 Window* window, RunReport* report) {
  double last_pass = 0.0;
  do {
    const double before = window->query_s;
    PassCounters pass;
    DE_RETURN_NOT_OK(run_pass(&pass));
    last_pass = window->query_s - before;
    if (window->passes == 0) {
      window->first = pass;
    } else if (pass.AsMap() != window->first.AsMap()) {
      report->Error("pass " + std::to_string(window->passes + 1) +
                    " counters differ from pass 1 (nondeterministic work)");
    }
    ++window->passes;
  } while (window->query_s + 0.5 * last_pass < seconds);
  return Status::OK();
}

void WindowNote(const char* label, const Window& w, RunReport* report) {
  report->Note(std::string(label) + " window: " + std::to_string(w.passes) +
               " passes, " + std::to_string(w.latency_ms.size()) +
               " queries, " + Exact(w.query_s) + " s of query time, " +
               Exact(w.nn_busy_s) + " s of it inference");
}

/// Prints the untraced window's end-to-end metrics.
void ReportEndToEnd(const Window& w, double setup_s, RunReport* report) {
  report->Set("setup_s", setup_s);
  report->Set("query_p50_ms", Median(w.latency_ms));
  report->SetTail("query_tail_ms", TailPercentile(w.latency_ms));
  report->Set("throughput_qps", Ratio(w.first.queries * w.passes, w.query_s));
  report->Set("index_bytes_frac",
              Ratio(static_cast<double>(w.first.index_bytes),
                    static_cast<double>(w.first.full_bytes)));
  WindowNote("untraced", w, report);
}

/// Per-layer metrics from the traced window. Counts are per pass (they are
/// identical in every pass); times cover the whole traced window.
void ReportPerLayer(const Window& w, const Plan& plan,
                    const de::core::PreprocessTimings* setup_builds,
                    int64_t setup_build_count, RunReport* report) {
  const PassCounters& p = w.first;
  const double window_s = w.query_s;
  // Layers this workload never calls into.
  for (const char* name :
       {"net.requests", "net.errors", "net.overhead_p50_ms",
        "service.queue_wait_p50_ms", "service.queue_wait_tail_ms",
        "service.exec_p50_ms", "service.utilization", "service.preemptions",
        "service.rejected", "nn.shared_batches", "persist.applies",
        "persist.apply_s", "persist.snapshots", "persist.snapshot_bytes",
        "persist.rejected", "storage.write_amp", "ingest_ack_p50_ms",
        "ingest_ack_tail_ms", "index_lag_p50_ms", "ingest.late_max_ms",
        "ingest.late_tail_ms"}) {
    report->Set(name, 0.0);
  }
  // One analyst: every query is interactive.
  report->SetTail("interactive_tail_ms", TailPercentile(w.latency_ms));
  report->Set("nn.inputs_run", static_cast<double>(p.nn_inputs));
  report->Set("nn.batches_run", static_cast<double>(p.nn_batches));
  report->Set("nn.busy_s", w.nn_busy_s);
  report->Set("nn.busy_frac", Ratio(w.nn_busy_s, window_s));
  report->Set("nn.batch_fill",
              Ratio(static_cast<double>(p.nn_inputs),
                    static_cast<double>(p.nn_batches) * kBatchSize));
  report->Set("nn.modeled_gpu_s", p.modeled_gpu_s);
  report->Set("inputs_run_frac",
              Ratio(static_cast<double>(p.inputs_run),
                    static_cast<double>(p.queries) * plan.dataset->size()));
  report->Set("nta.rounds_per_query",
              Ratio(static_cast<double>(p.rounds), p.queries));
  report->Set("nta.round_p50_ms", Median(w.layer.round_ms));
  const double nta_cpu_s = w.layer.step_s - w.layer.step_nn_s;
  report->Set("nta.cpu_s", nta_cpu_s);
  report->Set("nta.cpu_frac", Ratio(nta_cpu_s, window_s));
  report->Set("nta.terminated_early_frac",
              Ratio(static_cast<double>(p.terminated_early), p.queries));
  report->Set("iqa.hit_ratio",
              Ratio(static_cast<double>(p.iqa_hits),
                    static_cast<double>(p.iqa_hits + p.iqa_misses)));
  report->Set("iqa.evictions", static_cast<double>(p.iqa_evictions));
  report->Set("iqa.bytes", static_cast<double>(w.iqa_bytes));
  if (setup_builds != nullptr) {
    // Indexes were built during setup (PreprocessTimings of the last
    // setup repetition).
    report->Set("index.builds", static_cast<double>(setup_build_count));
    report->Set("index.build_inference_s", setup_builds->inference_seconds);
    report->Set("index.build_sort_s", setup_builds->index_seconds);
    report->Set("index.persist_s", setup_builds->persist_seconds);
  } else {
    // Indexes were built by the window's first query on each layer: the
    // "index.ensure" span minus the inference inside it. Persisting is
    // inside the same span, so it is counted in build_sort_s.
    report->Set("index.builds", static_cast<double>(p.builds));
    report->Set("index.build_inference_s", w.layer.build_nn_s);
    report->Set("index.build_sort_s",
                w.layer.ensure_build_s - w.layer.build_nn_s);
    report->Set("index.persist_s", 0.0);
  }
  report->Set("index.bytes", static_cast<double>(p.index_bytes));
  report->Set("storage.bytes_written", static_cast<double>(p.bytes_written));
  report->Set("storage.bytes_read", static_cast<double>(p.bytes_read));
}

std::map<std::string, double> GuardedCounters(const PassCounters& p,
                                              uint32_t num_inputs) {
  return {{"inputs_run_frac",
           Ratio(static_cast<double>(p.inputs_run),
                 static_cast<double>(p.queries) * num_inputs)},
          {"index_bytes_frac", Ratio(static_cast<double>(p.index_bytes),
                                     static_cast<double>(p.full_bytes))},
          {"nta.rounds_per_query",
           Ratio(static_cast<double>(p.rounds), p.queries)},
          {"nn.batches_run", static_cast<double>(p.nn_batches)},
          {"iqa.hit_ratio",
           Ratio(static_cast<double>(p.iqa_hits),
                 static_cast<double>(p.iqa_hits + p.iqa_misses))}};
}

void SessionHeader(const RunConfig& config, const Plan& plan, bool cold,
                   RunReport* report) {
  report->Header("model", "MiniVgg");
  report->Header("dataset_inputs", std::to_string(plan.dataset->size()));
  report->Header("iqa_capacity_bytes", std::to_string(plan.iqa_capacity_bytes));
  report->Header("workers", "1 (engine-direct)");
  report->Header("connections", "1 closed-loop client");
  report->Header("plan_queries", std::to_string(plan.specs.size()));
  report->Header("plan", cold ? std::to_string(plan.sessions.size()) +
                                    " sessions, each on a fresh engine"
                              : "related-query chains, one warm engine");
  report->Header("setup_repetitions", std::to_string(SetupRepetitions(config)));
}

/// Verifies every answer of both windows; mismatches count as failed.
Status VerifyAnswers(const Plan& plan, const std::vector<const Window*>& windows,
                     RunReport* report) {
  DE_ASSIGN_OR_RETURN(Verifier verifier,
                      Verifier::Build(plan.model.get(), plan.dataset.get(),
                                      plan.layers, kBatchSize));
  int64_t checked = 0;
  for (const Window* w : windows) {
    std::vector<std::string> errors;
    const int64_t mismatched = verifier.CheckAll(plan.specs, w->answers, &errors);
    report->failed += mismatched;
    checked += static_cast<int64_t>(w->answers.size());
    for (const std::string& e : errors) report->Error(e);
  }
  report->Note("verified " + std::to_string(checked) +
               " answers against fresh activation scans");
  return Status::OK();
}

std::string WorkDir(const RunConfig& config, const char* tag) {
  return (std::filesystem::path(config.work_dir) /
          (std::string(tag) + "-" + std::to_string(::getpid())))
      .string();
}

/// Makes the pass runner of one window (traced or not).
using PassFactory =
    std::function<std::function<Status(PassCounters*)>(bool, Window*)>;

/// The part both session workloads share after setup: the untraced window
/// (end-to-end metrics), the traced window with --trace 1 (per-layer
/// metrics), the counter guard, and verification of every answer.
/// `setup_builds` is null when the window itself builds the indexes.
Status MeasureAndVerify(const RunConfig& config, const Plan& plan,
                        double setup_s, const PassFactory& make_pass,
                        const de::core::PreprocessTimings* setup_builds,
                        RunReport* report) {
  Window plain;
  DE_RETURN_NOT_OK(
      RunWindow(config.seconds, make_pass(false, &plain), &plain, report));
  report->Set("peak_rss_mb", PeakRssMb());
  ReportEndToEnd(plain, setup_s, report);

  Window traced;
  if (config.trace) {
    DE_RETURN_NOT_OK(
        RunWindow(config.seconds, make_pass(true, &traced), &traced, report));
    if (traced.first.AsMap() != plain.first.AsMap()) {
      report->Error("traced pass counters differ from untraced ones");
    }
    WindowNote("traced", traced, report);
    ReportPerLayer(traced, plan, setup_builds,
                   static_cast<int64_t>(plan.layers.size()), report);
    report->Set("trace.overhead_frac",
                TraceOverheadFrac(Ratio(traced.first.queries * traced.passes,
                                        traced.query_s),
                                  report->metrics["throughput_qps"]));
  }
  report->attempted += plain.attempted + traced.attempted;
  report->failed += plain.failed + traced.failed;

  GuardCounters(config, *report,
                GuardedCounters(plain.first, plan.dataset->size()), report);
  return VerifyAnswers(plan, {&plain, &traced}, report);
}

}  // namespace

Status RunSessionCold(const RunConfig& config, RunReport* report) {
  const Sizes sizes = SizesFor(config, /*cold=*/true);
  const std::string dir = WorkDir(config, "session_cold");

  // Setup: model, seeded images, plan. Repeated; setup_s is the median.
  std::vector<double> setup_times;
  Plan plan;
  for (int rep = 0; rep < SetupRepetitions(config); ++rep) {
    const double t0 = rep == 0 ? config.start_seconds : NowSeconds();
    DE_ASSIGN_OR_RETURN(plan, MakePlan(config, sizes, /*cold=*/true));
    setup_times.push_back(NowSeconds() - t0);
  }
  SessionHeader(config, plan, /*cold=*/true, report);

  auto cold_pass = [&](bool traced, Window* window) {
    return [&, traced, window](PassCounters* pass) -> Status {
      for (const std::vector<uint32_t>& session : plan.sessions) {
        // A fresh engine and store per session: no index, empty cache.
        EngineHandle handle;
        DE_RETURN_NOT_OK(OpenEngine(plan, dir, &handle));
        const EngineSample before = EngineSample::Read(&handle);
        RunQueries(plan, session, &handle, traced, window, pass, report);
        AddEngineDelta(before, EngineSample::Read(&handle), window, pass);
        pass->builds += static_cast<int64_t>(
            handle.engine->index_manager()->LoadedLayers().size());
        DE_ASSIGN_OR_RETURN(uint64_t index_bytes,
                            handle.engine->PersistedIndexBytes());
        pass->index_bytes += index_bytes;
        pass->full_bytes += handle.engine->FullMaterializationBytes();
        window->iqa_bytes = handle.engine->iqa_cache()->size_bytes();
      }
      return Status::OK();
    };
  };

  return MeasureAndVerify(config, plan, Median(setup_times), cold_pass,
                          /*setup_builds=*/nullptr, report);
}

Status RunSessionWarm(const RunConfig& config, RunReport* report) {
  const Sizes sizes = SizesFor(config, /*cold=*/false);
  const std::string dir = WorkDir(config, "session_warm");

  // Setup: model, images, plan, the touched layers' indexes, and one
  // untimed pass that fills the cache. Repeated; setup_s is the median.
  std::vector<double> setup_times;
  Plan plan;
  EngineHandle handle;
  de::core::PreprocessTimings build_timings;
  for (int rep = 0; rep < SetupRepetitions(config); ++rep) {
    // Tearing the previous repetition down is not setup.
    handle.engine.reset();
    handle.store.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    const double t0 = rep == 0 ? config.start_seconds : NowSeconds();
    DE_ASSIGN_OR_RETURN(plan, MakePlan(config, sizes, /*cold=*/false));
    DE_RETURN_NOT_OK(OpenEngine(plan, dir, &handle));
    build_timings = de::core::PreprocessTimings();
    for (int layer : plan.layers) {
      de::core::PreprocessTimings timings;
      DE_RETURN_NOT_OK(handle.engine->index_manager()
                           ->EnsureIndex(layer, nullptr, &timings)
                           .status());
      build_timings += timings;
    }
    for (uint32_t id : plan.sessions[0]) {
      DE_RETURN_NOT_OK(handle.engine->ExecuteSpec(plan.specs[id]).status());
    }
    setup_times.push_back(NowSeconds() - t0);
  }
  SessionHeader(config, plan, /*cold=*/false, report);

  auto warm_pass = [&](bool traced, Window* window) {
    return [&, traced, window](PassCounters* pass) -> Status {
      const EngineSample before = EngineSample::Read(&handle);
      RunQueries(plan, plan.sessions[0], &handle, traced, window, pass,
                 report);
      AddEngineDelta(before, EngineSample::Read(&handle), window, pass);
      DE_ASSIGN_OR_RETURN(pass->index_bytes,
                          handle.engine->PersistedIndexBytes());
      pass->full_bytes = handle.engine->FullMaterializationBytes();
      window->iqa_bytes = handle.engine->iqa_cache()->size_bytes();
      return Status::OK();
    };
  };

  return MeasureAndVerify(config, plan, Median(setup_times), warm_pass,
                          &build_timings, report);
}

}  // namespace perfbench
