// serve_ingest: the only workload through `net` and `service`, with writes
// next to reads. A loopback QueryServer in this process fronts one
// QueryService over the TinyMlp demo system (indexes prebuilt), with a
// durable IngestQueue attached (log fsync on, periodic snapshots). Load:
// closed-loop keep-alive query connections sending a seeded mix of
// interactive/batch highest and most-similar queries, plus one open-loop
// connection posting fixed-size ingest batches at a fixed rate. Ingest
// applies merge into the same indexes the queries read.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/demo_system.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/query_spec_json.h"
#include "net/http_client.h"
#include "net/query_server.h"
#include "persist/ingest.h"
#include "service/engine_registry.h"
#include "service/query_service.h"
#include "verify.h"
#include "workloads.h"

namespace perfbench {

namespace de = deepeverest;
using de::Result;
using de::Status;

namespace {

/// The demo deployment is fixed; the run seed makes the workload (queries
/// and ingested inputs).
constexpr uint64_t kDemoSeed = 7;
constexpr int kDims = 8;
constexpr int kTopK = 20;

/// Where the load comes from. The sizing run was a Release build on 4
/// vCPUs (x86-64, AVX2) at these sizes with 32-input batches at 10/s.
/// - ingest_batch: the default batch of bench/bench_ingest.cpp.
/// - ingest_hz: half the applier's capacity. Each apply rewrites every
///   layer's index, so it took 68 ms under the query load whatever the
///   batch size: about 14.7 applies/s at most. At 7/s the applier is about
///   half busy, clear of saturation, where index lag would grow unbounded.
/// - snapshot_every: one snapshot per 10 s of ingest, two per 20 s window.
///   This one is a choice, not a measurement.
/// - plan_specs: more than one connection sent in a 20 s window (about
///   1300), so no connection repeats a spec within a window.
struct Sizes {
  uint32_t num_inputs = 100000;
  int plan_specs = 1536;
  int ingest_batch = 16;
  double ingest_hz = 7.0;
  uint32_t snapshot_every = 16 * 7 * 10;
};

Sizes SizesFor(const RunConfig& config) {
  Sizes sizes;
  if (config.tiny) {
    sizes.num_inputs = 2000;
    sizes.plan_specs = 24;
    sizes.ingest_batch = 8;
    sizes.ingest_hz = 20.0;
    sizes.snapshot_every = 64;
  }
  return sizes;
}

int Cores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

/// Generator threads/connections never exceed the core count: one for
/// ingest, the rest (at most three) closed-loop query clients.
int QueryConnections() { return std::max(1, std::min(3, Cores() - 1)); }
int ServiceWorkers() { return std::min(3, Cores()); }

/// What the program receives: query specs and ingest batches, all from
/// the run seed.
struct Workload {
  std::vector<de::core::QuerySpec> specs;
  std::vector<std::vector<de::service::IngestInput>> batches;
};

Workload MakeWorkload(const RunConfig& config, const Sizes& sizes,
                      const de::nn::Model& model, int num_batches) {
  Workload w;
  de::Rng rng(config.seed * 1000003 + 3);
  const std::vector<int>& layers = model.activation_layers();
  // The mix is stratified, not drawn: layer, group size, kind and QoS class
  // cycle with the spec index, so seeds differ only in neurons and targets.
  // One spec in four is a most-similar query, so each kind takes about half
  // of the service's execution time: in the sizing run a most-similar query
  // took 12 ms (p50) and a highest one 2.5 ms, a 55/45 split. Every run
  // prints that split. Layer, group and kind repeat every 12 specs, and the
  // QoS class flips every 12 (half interactive, half batch, as in
  // bench_util::MakeMixedWorkload), so both classes get the same mix.
  for (int i = 0; i < sizes.plan_specs; ++i) {
    de::core::QuerySpec spec;
    spec.k = kTopK;
    spec.layer = layers[static_cast<size_t>(i) % layers.size()];
    const size_t width = static_cast<size_t>(model.NeuronCount(spec.layer));
    const size_t group = 1 + static_cast<size_t>(i / 4) % 3;
    for (size_t n : rng.SampleWithoutReplacement(width, group)) {
      spec.neurons.push_back(static_cast<int64_t>(n));
    }
    std::sort(spec.neurons.begin(), spec.neurons.end());
    if (i % 4 != 3) {
      spec.kind = de::core::QuerySpec::Kind::kHighest;
    } else {
      spec.kind = de::core::QuerySpec::Kind::kMostSimilar;
      spec.target_id = static_cast<int64_t>(rng.NextUint64(sizes.num_inputs));
    }
    spec.qos = (i / 12) % 2 == 0 ? de::QosClass::kInteractive
                                 : de::QosClass::kBatch;
    w.specs.push_back(std::move(spec));
  }
  for (int b = 0; b < num_batches; ++b) {
    std::vector<de::service::IngestInput> batch(
        static_cast<size_t>(sizes.ingest_batch));
    for (de::service::IngestInput& input : batch) {
      input.values.resize(kDims);
      for (float& v : input.values) v = static_cast<float>(rng.NextGaussian());
      input.label = static_cast<int>(rng.NextUint64(4));
    }
    w.batches.push_back(std::move(batch));
  }
  return w;
}

std::string QueryBody(const de::core::QuerySpec& spec, uint64_t session,
                      bool trace) {
  de::core::QuerySpec sent = spec;
  sent.session_id = session;
  de::JsonWriter w;
  w.BeginObject();
  de::core::WriteQuerySpecFields(sent, &w);
  if (trace) {
    w.Key("trace");
    w.Int(1);
  }
  w.EndObject();
  return w.TakeString();
}

std::string IngestBody(const std::vector<de::service::IngestInput>& batch) {
  de::JsonWriter w;
  w.BeginObject();
  w.Key("inputs");
  w.BeginArray();
  for (const de::service::IngestInput& input : batch) {
    w.BeginObject();
    w.Key("values");
    w.BeginArray();
    for (float v : input.values) w.Double(v);
    w.EndArray();
    w.Key("label");
    w.Int(input.label);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

/// One set-up serving stack. Members are destroyed server-first, so no
/// layer outlives what it points into.
struct Stack {
  std::string dir;
  std::unique_ptr<de::bench_util::DemoSystem> system;
  de::core::PreprocessTimings build_timings;
  int64_t layers_built = 0;
  /// "ingest.apply" span durations, appended by the queue's trace sink.
  std::mutex apply_mu;
  std::vector<double> apply_s;
  std::unique_ptr<de::persist::IngestQueue> queue;
  std::unique_ptr<de::service::QueryService> service;
  std::unique_ptr<de::service::EngineRegistry> registry;
  std::unique_ptr<de::net::QueryServer> server;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    if (server != nullptr) server->Shutdown();
    server.reset();
    registry.reset();
    if (service != nullptr) service->Shutdown();
    service.reset();
    if (queue != nullptr) queue->Shutdown();
    queue.reset();
    system.reset();
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

Result<std::unique_ptr<Stack>> MakeStack(const Sizes& sizes,
                                         const std::string& dir) {
  auto stack = std::make_unique<Stack>();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  stack->dir = dir;
  de::bench_util::DemoSystemOptions demo;
  demo.seed = kDemoSeed;
  demo.num_inputs = sizes.num_inputs;
  demo.input_units = kDims;
  demo.preprocess = false;  // built below, with the timing breakdown
  demo.store_dir = dir + "/store";
  DE_ASSIGN_OR_RETURN(stack->system, de::bench_util::DemoSystem::Make(demo));
  de::core::DeepEverest* engine = stack->system->engine();
  DE_RETURN_NOT_OK(engine->PreprocessAllLayers(&stack->build_timings));
  stack->layers_built =
      static_cast<int64_t>(engine->index_manager()->LoadedLayers().size());

  de::persist::IngestQueueOptions ingest;
  ingest.sync_log = true;
  ingest.snapshot_every = sizes.snapshot_every;
  Stack* raw = stack.get();
  ingest.trace_sink = [raw](std::shared_ptr<de::Trace> trace) {
    const de::Trace::Data data = trace->Snapshot();
    std::lock_guard<std::mutex> lock(raw->apply_mu);
    for (const de::TraceSpan& span : data.spans) {
      if (span.name == "ingest.apply") {
        raw->apply_s.push_back(static_cast<double>(span.duration_nanos) *
                               1e-9);
      }
    }
  };
  DE_ASSIGN_OR_RETURN(
      stack->queue,
      de::persist::IngestQueue::Create(engine,
                                       stack->system->mutable_dataset(),
                                       stack->system->store(), ingest));

  de::service::QueryServiceOptions service;
  service.num_workers = ServiceWorkers();
  service.slow_query_seconds = 0.0;  // no log lines from the load
  DE_ASSIGN_OR_RETURN(stack->service,
                      de::service::QueryService::Create(engine, service));
  stack->registry = std::make_unique<de::service::EngineRegistry>();
  const std::string& model = stack->system->model_name();
  DE_RETURN_NOT_OK(stack->registry->Register(model, stack->service.get()));
  DE_RETURN_NOT_OK(stack->registry->AttachIngest(model, stack->queue.get()));

  de::net::QueryServerOptions server;
  server.http.port = 0;  // ephemeral loopback port
  DE_ASSIGN_OR_RETURN(stack->server, de::net::QueryServer::Start(
                                         stack->registry.get(), server));
  return stack;
}

/// HTTP front-end counters, read from the server's own metrics registry.
struct HttpCounters {
  double requests = 0.0;
  double errors = 0.0;
};

HttpCounters ReadHttpCounters(de::net::QueryServer* server) {
  HttpCounters c;
  std::istringstream text(server->metrics()->RenderPrometheusText());
  std::string line;
  while (std::getline(text, line)) {
    const size_t space = line.rfind(' ');
    if (line.empty() || line[0] == '#' || space == std::string::npos) continue;
    const std::string series = line.substr(0, space);
    const double value = std::strtod(line.c_str() + space + 1, nullptr);
    if (series == "deepeverest_http_requests_total") c.requests = value;
    if (series == "deepeverest_http_responses_total{code=\"4xx\"}" ||
        series == "deepeverest_http_responses_total{code=\"5xx\"}") {
      c.errors += value;
    }
  }
  return c;
}

/// One completed query, as the client saw it.
struct QuerySample {
  double rtt_ms = 0.0;
  double queue_ms = 0.0;
  double exec_ms = 0.0;
  bool interactive = false;
  bool most_similar = false;
  int64_t inputs_run = 0;
  int64_t rounds = 0;
  bool terminated_early = false;
  int64_t dataset_version = 0;
};

/// Program spans folded from `trace=1` responses.
struct WireSpans {
  std::vector<double> round_ms;
  double nta_s = 0.0;      // nta.round + nta.target
  double compute_s = 0.0;  // compute_layer (inference, through the batcher)
};

struct ClientResult {
  std::vector<QuerySample> samples;
  std::vector<Answer> answers;
  WireSpans spans;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  double last_done = 0.0;
};

bool ParseQueryResponse(const std::string& body, uint32_t spec,
                        QuerySample* sample, Answer* answer, WireSpans* spans,
                        std::string* why) {
  auto parsed = de::ParseJson(body);
  if (!parsed.ok() || !parsed->is_object()) {
    *why = "unparseable response";
    return false;
  }
  const de::JsonValue* entries = parsed->Find("entries");
  const de::JsonValue* stats = parsed->Find("stats");
  if (entries == nullptr || !entries->is_array() || stats == nullptr) {
    *why = "response without entries/stats";
    return false;
  }
  answer->spec = spec;
  for (const de::JsonValue& e : entries->array_items()) {
    const de::JsonValue* id = e.Find("input_id");
    const de::JsonValue* value = e.Find("value");
    if (id == nullptr || value == nullptr) {
      *why = "malformed entry";
      return false;
    }
    answer->entries.push_back(de::core::ResultEntry{
        static_cast<uint32_t>(id->int_value()), value->number_value()});
  }
  auto number = [&](const char* key) {
    const de::JsonValue* v = stats->Find(key);
    return v != nullptr && v->is_number() ? v->number_value() : 0.0;
  };
  sample->queue_ms = number("queue_seconds") * 1e3;
  sample->exec_ms = number("wall_seconds") * 1e3;
  sample->inputs_run = static_cast<int64_t>(number("inputs_run"));
  sample->rounds = static_cast<int64_t>(number("rounds"));
  sample->dataset_version = static_cast<int64_t>(number("dataset_version"));
  const de::JsonValue* early = stats->Find("terminated_early");
  sample->terminated_early = early != nullptr && early->is_bool() &&
                             early->bool_value();
  answer->dataset_version = sample->dataset_version;

  if (const de::JsonValue* trace = parsed->Find("trace")) {
    const de::JsonValue* list = trace->Find("spans");
    if (list != nullptr && list->is_array()) {
      for (const de::JsonValue& span : list->array_items()) {
        const de::JsonValue* name = span.Find("name");
        const de::JsonValue* nanos = span.Find("duration_nanos");
        if (name == nullptr || nanos == nullptr || !name->is_string()) continue;
        const double seconds = nanos->number_value() * 1e-9;
        const std::string& n = name->string_value();
        if (n == "nta.round") {
          spans->round_ms.push_back(seconds * 1e3);
          spans->nta_s += seconds;
        } else if (n == "nta.target") {
          spans->nta_s += seconds;
        } else if (n == "compute_layer") {
          spans->compute_s += seconds;
        }
      }
    }
  }
  return true;
}

/// One closed-loop keep-alive connection: the next query is sent when the
/// previous answer arrived, until `end`.
void QueryClient(uint16_t port, const std::vector<std::string>& bodies,
                 const std::vector<de::core::QuerySpec>& specs, size_t offset,
                 double end, ClientResult* out) {
  auto client = de::net::HttpClient::Connect("127.0.0.1", port, 60.0);
  if (!client.ok()) {
    ++out->failed;
    out->errors.push_back("connect: " + client.status().ToString());
    return;
  }
  for (size_t i = offset; NowSeconds() < end; ++i) {
    const uint32_t spec = static_cast<uint32_t>(i % bodies.size());
    ++out->attempted;
    const double t0 = NowSeconds();
    auto response = client->Post("/v1/query", bodies[spec]);
    const double t1 = NowSeconds();
    std::string why;
    QuerySample sample;
    Answer answer;
    if (!response.ok()) {
      why = response.status().ToString();
    } else if (response->status != 200) {
      why = "HTTP " + std::to_string(response->status) + ": " + response->body;
    } else if (ParseQueryResponse(response->body, spec, &sample, &answer,
                                  &out->spans, &why)) {
      sample.rtt_ms = (t1 - t0) * 1e3;
      sample.interactive = specs[spec].qos == de::QosClass::kInteractive;
      sample.most_similar =
          specs[spec].kind == de::core::QuerySpec::Kind::kMostSimilar;
      out->samples.push_back(sample);
      out->answers.push_back(std::move(answer));
      out->last_done = t1;
      continue;
    }
    ++out->failed;
    if (out->errors.size() < 5) out->errors.push_back("query: " + why);
    if (!response.ok()) return;  // the connection is gone
  }
}

/// The open-loop ingest stream: batch i is due at start + i / hz whatever
/// happened to earlier batches; every latency is timed from the due time.
struct IngestResult {
  std::vector<double> ack_ms;
  std::vector<double> late_ms;
  std::vector<double> lag_ms;
  /// Acknowledged batches: (batch index, first id) for the readback check.
  std::vector<std::pair<size_t, uint32_t>> acked;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  size_t next_batch = 0;
};

void IngestClient(uint16_t port, const std::vector<std::string>& bodies,
                  const Sizes& sizes, de::persist::IngestQueue* queue,
                  double start, double end, IngestResult* out) {
  auto client = de::net::HttpClient::Connect("127.0.0.1", port, 60.0);
  if (!client.ok()) {
    ++out->failed;
    out->errors.push_back("connect: " + client.status().ToString());
    return;
  }
  // Acked batches waiting for the index watermark: (dataset size, ack time).
  std::deque<std::pair<uint32_t, double>> pending;
  auto poll_watermark = [&] {
    if (pending.empty()) return;
    const uint32_t watermark = queue->Stats().min_watermark;
    const double now = NowSeconds();
    while (!pending.empty() && pending.front().first <= watermark) {
      out->lag_ms.push_back((now - pending.front().second) * 1e3);
      pending.pop_front();
    }
  };
  const double period = 1.0 / sizes.ingest_hz;
  for (int64_t i = 0;; ++i) {
    const double due = start + static_cast<double>(i) * period;
    if (due >= end || out->next_batch >= bodies.size()) break;
    while (NowSeconds() < due) {
      poll_watermark();
      const double wait = std::min(2.5e-4, due - NowSeconds());
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
    }
    const size_t batch = out->next_batch++;
    ++out->attempted;
    const double sent = NowSeconds();
    auto response = client->Post("/v1/ingest", bodies[batch]);
    const double acked = NowSeconds();
    out->late_ms.push_back((sent - due) * 1e3);
    std::string why;
    if (!response.ok()) {
      why = response.status().ToString();
    } else if (response->status != 200) {
      why = "HTTP " + std::to_string(response->status) + ": " + response->body;
    } else {
      auto parsed = de::ParseJson(response->body);
      const de::JsonValue* first =
          parsed.ok() ? parsed->Find("first_id") : nullptr;
      const de::JsonValue* count = parsed.ok() ? parsed->Find("count") : nullptr;
      const de::JsonValue* size =
          parsed.ok() ? parsed->Find("dataset_size") : nullptr;
      if (first == nullptr || count == nullptr || size == nullptr ||
          count->int_value() != sizes.ingest_batch ||
          size->int_value() != first->int_value() + sizes.ingest_batch) {
        why = "malformed ack: " + response->body;
      } else {
        out->ack_ms.push_back((acked - due) * 1e3);
        out->acked.emplace_back(batch,
                                static_cast<uint32_t>(first->int_value()));
        pending.emplace_back(static_cast<uint32_t>(size->int_value()), acked);
        continue;
      }
    }
    ++out->failed;
    if (out->errors.size() < 5) out->errors.push_back("ingest: " + why);
    if (!response.ok()) return;
  }
  // Index lag of the last batches: keep watching (outside the window).
  const double give_up = NowSeconds() + 30.0;
  while (!pending.empty() && NowSeconds() < give_up) {
    poll_watermark();
    std::this_thread::sleep_for(std::chrono::microseconds(250));
  }
  if (!pending.empty()) {
    ++out->failed;
    out->errors.push_back("index watermark never covered an acked batch");
  }
}

/// Everything one timed window measured.
struct Window {
  double seconds = 0.0;
  std::vector<QuerySample> samples;
  std::vector<Answer> answers;
  WireSpans spans;
  IngestResult ingest;
  int64_t attempted = 0;
  int64_t failed = 0;
  // Counter deltas over the window.
  HttpCounters http;
  de::service::ServiceStats service_before, service_after;
  de::nn::InferenceStats nn;
  de::service::IngestStats ingest_before, ingest_after;
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
  std::vector<double> apply_s;
};

Status RunWindow(Stack* stack, const Workload& workload, const Sizes& sizes,
                 const std::vector<std::string>& ingest_bodies,
                 size_t first_batch, double seconds, bool trace,
                 RunReport* report, Window* window) {
  const int connections = QueryConnections();
  const uint16_t port = stack->server->port();
  std::vector<std::vector<std::string>> bodies(
      static_cast<size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    for (const de::core::QuerySpec& spec : workload.specs) {
      bodies[static_cast<size_t>(c)].push_back(
          QueryBody(spec, static_cast<uint64_t>(c + 1), trace));
    }
  }
  de::core::DeepEverest* engine = stack->system->engine();
  const HttpCounters http_before = ReadHttpCounters(stack->server.get());
  window->service_before = stack->service->Snapshot();
  window->ingest_before = stack->queue->Stats();
  const de::nn::InferenceStats nn_before = engine->inference()->stats();
  const uint64_t written_before = stack->system->store()->bytes_written();
  const uint64_t read_before = stack->system->store()->bytes_read();
  {
    std::lock_guard<std::mutex> lock(stack->apply_mu);
    stack->apply_s.clear();
  }

  std::vector<ClientResult> clients(static_cast<size_t>(connections));
  window->ingest.next_batch = first_batch;
  const double start = NowSeconds();
  const double end = start + seconds;
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    const size_t offset = static_cast<size_t>(c) * workload.specs.size() /
                          static_cast<size_t>(connections);
    threads.emplace_back(QueryClient, port,
                         std::cref(bodies[static_cast<size_t>(c)]),
                         std::cref(workload.specs), offset, end,
                         &clients[static_cast<size_t>(c)]);
  }
  threads.emplace_back(IngestClient, port, std::cref(ingest_bodies),
                       std::cref(sizes), stack->queue.get(), start, end,
                       &window->ingest);
  for (std::thread& t : threads) t.join();

  double last_done = end;
  for (ClientResult& c : clients) {
    last_done = std::max(last_done, c.last_done);
    window->attempted += c.attempted;
    window->failed += c.failed;
    for (const std::string& e : c.errors) report->Error(e);
    window->samples.insert(window->samples.end(), c.samples.begin(),
                           c.samples.end());
    for (Answer& a : c.answers) window->answers.push_back(std::move(a));
    window->spans.round_ms.insert(window->spans.round_ms.end(),
                                  c.spans.round_ms.begin(),
                                  c.spans.round_ms.end());
    window->spans.nta_s += c.spans.nta_s;
    window->spans.compute_s += c.spans.compute_s;
  }
  window->seconds = last_done - start;
  window->attempted += window->ingest.attempted;
  window->failed += window->ingest.failed;
  for (const std::string& e : window->ingest.errors) report->Error(e);
  if (!stack->queue->WaitIdle(60.0)) {
    return Status::Internal("ingest applier did not catch up");
  }

  const HttpCounters http_after = ReadHttpCounters(stack->server.get());
  window->http.requests = http_after.requests - http_before.requests;
  window->http.errors = http_after.errors - http_before.errors;
  window->service_after = stack->service->Snapshot();
  window->ingest_after = stack->queue->Stats();
  window->nn = engine->inference()->stats() - nn_before;
  window->bytes_written = stack->system->store()->bytes_written() - written_before;
  window->bytes_read = stack->system->store()->bytes_read() - read_before;
  {
    std::lock_guard<std::mutex> lock(stack->apply_mu);
    window->apply_s = stack->apply_s;
  }
  return Status::OK();
}

template <typename Field>
std::vector<double> Collect(const std::vector<QuerySample>& samples,
                            Field field, bool interactive_only = false) {
  std::vector<double> out;
  for (const QuerySample& s : samples) {
    if (!interactive_only || s.interactive) out.push_back(field(s));
  }
  return out;
}

void ReportEndToEnd(const Window& w, double setup_s, Stack* stack,
                    RunReport* report) {
  const auto rtt = Collect(w.samples, [](const QuerySample& s) {
    return s.rtt_ms;
  });
  report->Set("setup_s", setup_s);
  report->Set("query_p50_ms", Median(rtt));
  report->SetTail("query_tail_ms", TailPercentile(rtt));
  report->Set("throughput_qps",
              Ratio(static_cast<double>(w.samples.size()), w.seconds));
  auto index_bytes = stack->system->engine()->PersistedIndexBytes();
  report->Set("index_bytes_frac",
              Ratio(index_bytes.ok() ? static_cast<double>(*index_bytes) : 0.0,
                    static_cast<double>(stack->system->engine()
                                            ->FullMaterializationBytes())));
  report->Note("window: " + Exact(w.seconds) + " s, " +
               std::to_string(w.samples.size()) + " queries, " +
               std::to_string(w.ingest.ack_ms.size()) + " ingest batches");
  // The basis of the query mix: what each kind costs the service.
  for (const bool similar : {false, true}) {
    std::vector<double> exec_ms;
    double total_ms = 0.0, kind_ms = 0.0;
    for (const QuerySample& s : w.samples) {
      total_ms += s.exec_ms;
      if (s.most_similar != similar) continue;
      exec_ms.push_back(s.exec_ms);
      kind_ms += s.exec_ms;
    }
    char line[200];
    std::snprintf(line, sizeof(line),
                  "%s queries: %zu, service exec p50 %.3f ms, %.1f%% of "
                  "service exec time",
                  similar ? "most-similar" : "highest", exec_ms.size(),
                  Median(exec_ms), 100.0 * Ratio(kind_ms, total_ms));
    report->Note(line);
  }
}

void ReportPerLayer(const Window& w, Stack* stack, RunReport* report) {
  const double workers = ServiceWorkers();
  const de::service::ServiceStats& s0 = w.service_before;
  const de::service::ServiceStats& s1 = w.service_after;
  report->Set("net.requests", w.http.requests);
  report->Set("net.errors", w.http.errors);
  report->Set("net.overhead_p50_ms",
              Median(Collect(w.samples, [](const QuerySample& s) {
                return s.rtt_ms - s.queue_ms - s.exec_ms;
              })));
  const auto queue_ms = Collect(w.samples, [](const QuerySample& s) {
    return s.queue_ms;
  });
  report->Set("service.queue_wait_p50_ms", Median(queue_ms));
  report->SetTail("service.queue_wait_tail_ms", TailPercentile(queue_ms));
  report->Set("service.exec_p50_ms",
              Median(Collect(w.samples, [](const QuerySample& s) {
                return s.exec_ms;
              })));
  report->Set("service.utilization",
              Ratio(s1.worker_busy_seconds - s0.worker_busy_seconds,
                    w.seconds * workers));
  report->Set("service.preemptions",
              static_cast<double>(s1.preemptions - s0.preemptions));
  report->Set("service.rejected",
              static_cast<double>(
                  (s1.rejected_queue_full - s0.rejected_queue_full) +
                  (s1.rejected_session_limit - s0.rejected_session_limit)));
  report->SetTail("interactive_tail_ms",
                  TailPercentile(Collect(
                      w.samples, [](const QuerySample& s) { return s.rtt_ms; },
                      /*interactive_only=*/true)));

  const int batch_size = stack->system->engine()->options().batch_size;
  report->Set("nn.inputs_run", static_cast<double>(w.nn.inputs_run));
  report->Set("nn.batches_run", static_cast<double>(w.nn.batches_run));
  report->Set("nn.busy_s", w.nn.wall_seconds);
  report->Set("nn.busy_frac", Ratio(w.nn.wall_seconds, w.seconds * workers));
  report->Set("nn.batch_fill",
              Ratio(static_cast<double>(w.nn.inputs_run),
                    static_cast<double>(w.nn.batches_run) * batch_size));
  report->Set("nn.shared_batches",
              static_cast<double>(s1.batching.shared_batches -
                                  s0.batching.shared_batches));
  report->Set("nn.modeled_gpu_s", w.nn.simulated_gpu_seconds);

  int64_t inputs_run = 0, rounds = 0, early = 0, versions = 0;
  for (const QuerySample& s : w.samples) {
    inputs_run += s.inputs_run;
    rounds += s.rounds;
    early += s.terminated_early ? 1 : 0;
    versions += s.dataset_version;
  }
  const double queries = static_cast<double>(w.samples.size());
  report->Set("inputs_run_frac", Ratio(static_cast<double>(inputs_run),
                                       static_cast<double>(versions)));
  report->Set("nta.rounds_per_query",
              Ratio(static_cast<double>(rounds), queries));
  report->Set("nta.round_p50_ms", Median(w.spans.round_ms));
  const double nta_cpu_s = w.spans.nta_s - w.spans.compute_s;
  report->Set("nta.cpu_s", nta_cpu_s);
  report->Set("nta.cpu_frac", Ratio(nta_cpu_s, w.seconds * workers));
  report->Set("nta.terminated_early_frac",
              Ratio(static_cast<double>(early), queries));
  // The demo system runs without an IQA cache.
  report->Set("iqa.hit_ratio", 0.0);
  report->Set("iqa.evictions", 0.0);
  report->Set("iqa.bytes", 0.0);

  report->Set("index.builds", static_cast<double>(stack->layers_built));
  report->Set("index.build_inference_s",
              stack->build_timings.inference_seconds);
  report->Set("index.build_sort_s", stack->build_timings.index_seconds);
  report->Set("index.persist_s", stack->build_timings.persist_seconds);
  auto index_bytes = stack->system->engine()->PersistedIndexBytes();
  report->Set("index.bytes",
              index_bytes.ok() ? static_cast<double>(*index_bytes) : 0.0);

  const de::service::IngestStats& i0 = w.ingest_before;
  const de::service::IngestStats& i1 = w.ingest_after;
  double apply_s = 0.0;
  for (double s : w.apply_s) apply_s += s;
  report->Set("persist.applies",
              static_cast<double>(i1.applies_total - i0.applies_total));
  report->Set("persist.apply_s", apply_s);
  report->Set("persist.snapshots",
              static_cast<double>(i1.snapshots_written - i0.snapshots_written));
  report->Set("persist.snapshot_bytes", static_cast<double>(i1.snapshot_bytes));
  report->Set("persist.rejected",
              static_cast<double>(i1.rejected_total - i0.rejected_total));
  const double payload =
      static_cast<double>(i1.ingested_total - i0.ingested_total) * kDims *
      sizeof(float);
  report->Set("storage.bytes_written", static_cast<double>(w.bytes_written));
  report->Set("storage.bytes_read", static_cast<double>(w.bytes_read));
  report->Set("storage.write_amp",
              Ratio(static_cast<double>(w.bytes_written), payload));

  report->Set("ingest_ack_p50_ms", Median(w.ingest.ack_ms));
  report->SetTail("ingest_ack_tail_ms", TailPercentile(w.ingest.ack_ms));
  report->Set("index_lag_p50_ms", Median(w.ingest.lag_ms));
  report->Set("ingest.late_max_ms",
              w.ingest.late_ms.empty()
                  ? 0.0
                  : *std::max_element(w.ingest.late_ms.begin(),
                                      w.ingest.late_ms.end()));
  report->SetTail("ingest.late_tail_ms", TailPercentile(w.ingest.late_ms));
}

/// Every ingested row must read back bit-identical from the dataset.
int64_t CheckIngestedRows(const Stack& stack, const Workload& workload,
                          const Window& w, RunReport* report) {
  int64_t bad = 0;
  const de::data::Dataset* dataset = stack.system->dataset();
  for (const auto& [batch, first_id] : w.ingest.acked) {
    const auto& inputs = workload.batches[batch];
    for (size_t j = 0; j < inputs.size(); ++j) {
      const uint32_t id = first_id + static_cast<uint32_t>(j);
      bool same = id < dataset->size();
      if (same) {
        const de::Tensor& row = dataset->input(id);
        for (int d = 0; d < kDims && same; ++d) {
          same = row[d] == inputs[j].values[static_cast<size_t>(d)];
        }
      }
      if (!same) {
        ++bad;
        report->Error("ingested input " + std::to_string(id) +
                      " does not read back as sent");
        break;
      }
    }
  }
  return bad;
}

}  // namespace

Status RunServeIngest(const RunConfig& config, RunReport* report) {
  const Sizes sizes = SizesFor(config);
  const std::string dir =
      (std::filesystem::path(config.work_dir) /
       ("serve_ingest-" + std::to_string(::getpid())))
          .string();
  const int windows = config.trace ? 2 : 1;
  const int batches_per_window =
      static_cast<int>(std::ceil(config.seconds * sizes.ingest_hz)) + 1;

  // Setup: the serving stack (demo system, every index built, ingest queue,
  // service, loopback server) and the workload. Repeated; setup_s is the
  // median; the last stack serves the run.
  std::vector<double> setup_times;
  std::unique_ptr<Stack> stack;
  Workload workload;
  std::vector<std::string> ingest_bodies;
  for (int rep = 0; rep < SetupRepetitions(config); ++rep) {
    stack.reset();  // tearing the previous repetition down is not setup
    const double t0 = rep == 0 ? config.start_seconds : NowSeconds();
    DE_ASSIGN_OR_RETURN(stack, MakeStack(sizes, dir));
    workload = MakeWorkload(config, sizes, *stack->system->model(),
                            windows * batches_per_window);
    ingest_bodies.clear();
    for (const auto& batch : workload.batches) {
      ingest_bodies.push_back(IngestBody(batch));
    }
    setup_times.push_back(NowSeconds() - t0);
  }

  report->Header("model", "TinyMlp demo system");
  report->Header("dataset_inputs", std::to_string(sizes.num_inputs));
  report->Header("iqa_capacity_bytes", "0 (no IQA)");
  report->Header("workers", std::to_string(ServiceWorkers()));
  report->Header("connections",
                 std::to_string(QueryConnections()) +
                     " closed-loop query + 1 open-loop ingest");
  report->Header("plan_queries", std::to_string(workload.specs.size()));
  report->Header("ingest", std::to_string(sizes.ingest_batch) +
                               " inputs per batch at " +
                               Exact(sizes.ingest_hz) +
                               " batches/s, log fsync on, snapshot every " +
                               std::to_string(sizes.snapshot_every) +
                               " inputs");
  report->Header("setup_repetitions", std::to_string(SetupRepetitions(config)));

  Window plain;
  DE_RETURN_NOT_OK(RunWindow(stack.get(), workload, sizes, ingest_bodies, 0,
                             config.seconds, /*trace=*/false, report, &plain));
  report->Set("peak_rss_mb", PeakRssMb());
  ReportEndToEnd(plain, Median(setup_times), stack.get(), report);

  Window traced;
  if (config.trace) {
    DE_RETURN_NOT_OK(RunWindow(stack.get(), workload, sizes, ingest_bodies,
                               plain.ingest.next_batch, config.seconds,
                               /*trace=*/true, report, &traced));
    ReportPerLayer(traced, stack.get(), report);
    report->Set("trace.overhead_frac",
                TraceOverheadFrac(
                    Ratio(static_cast<double>(traced.samples.size()),
                          traced.seconds),
                    report->metrics["throughput_qps"]));
  }
  for (const Window* w : {&plain, &traced}) {
    report->attempted += w->attempted;
    report->failed += w->failed;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "ingest generator lateness: max %.3f ms, p50 %.3f ms",
                  w->ingest.late_ms.empty()
                      ? 0.0
                      : *std::max_element(w->ingest.late_ms.begin(),
                                          w->ingest.late_ms.end()),
                  Median(w->ingest.late_ms));
    if (!w->ingest.late_ms.empty()) report->Note(line);
  }

  // Verification, outside every metric: stop the load, let the applier
  // finish, then scan fresh activations of the final dataset.
  stack->server->Shutdown();
  stack->service->Shutdown();
  stack->queue->Shutdown();
  const de::service::IngestStats final_ingest = stack->queue->Stats();
  if (final_ingest.min_watermark != final_ingest.dataset_size) {
    report->Error("index watermark " +
                  std::to_string(final_ingest.min_watermark) +
                  " != dataset size " +
                  std::to_string(final_ingest.dataset_size));
  }
  for (const Window* w : {&plain, &traced}) {
    report->failed += CheckIngestedRows(*stack, workload, *w, report);
  }
  DE_ASSIGN_OR_RETURN(
      Verifier verifier,
      Verifier::Build(stack->system->model(), stack->system->dataset(),
                      stack->system->model()->activation_layers(),
                      stack->system->engine()->options().batch_size));
  int64_t checked = 0;
  for (const Window* w : {&plain, &traced}) {
    std::vector<std::string> errors;
    report->failed += verifier.CheckAll(workload.specs, w->answers, &errors);
    checked += static_cast<int64_t>(w->answers.size());
    for (const std::string& e : errors) report->Error(e);
  }
  report->Note("verified " + std::to_string(checked) +
               " answers against fresh activation scans");
  return Status::OK();
}

}  // namespace perfbench
