// End-to-end tests for the HTTP query API over real loopback sockets:
// bit-identical results vs. the in-process sequential reference, URL and
// JSON encodings, model routing through the EngineRegistry (/v1/models,
// unknown-model 404, per-model /v1/stats), declarative queries over
// /v1/ql, NDJSON streaming with progress-before-result ordering,
// client-disconnect cancellation (reflected in ServiceStats.cancelled),
// deadline_ms=0 rejection without inference, the error-status mapping, and
// concurrent keep-alive clients matching concurrent in-process callers.
#include "net/query_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/demo_system.h"
#include "common/json.h"
#include "common/logging.h"
#include "core/query_spec_json.h"
#include "net/http.h"
#include "net/http_client.h"
#include "service/ingest_sink.h"
#include "service/metrics_registry.h"

namespace deepeverest {
namespace net {
namespace {

using bench_util::DemoSystem;
using bench_util::DemoSystemOptions;

/// Demo system + service + registry + server + connected client, on a
/// kernel port. `second_model` registers an independent second system (its
/// own engine and service over a different seed) under "twin".
struct ServerFixture {
  explicit ServerFixture(DemoSystemOptions demo_options = {},
                         service::QueryServiceOptions service_options = {},
                         bool second_model = false) {
    auto made = DemoSystem::Make(demo_options);
    EXPECT_TRUE(made.ok()) << made.status().ToString();
    system = std::move(made.value());
    auto created =
        service::QueryService::Create(system->engine(), service_options);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    service = std::move(created.value());
    EXPECT_TRUE(registry.Register(system->model_name(), service.get()).ok());
    if (second_model) {
      DemoSystemOptions second_options = demo_options;
      second_options.seed = demo_options.seed + 555;
      auto second_made = DemoSystem::Make(second_options);
      EXPECT_TRUE(second_made.ok());
      second_system = std::move(second_made.value());
      auto second_created = service::QueryService::Create(
          second_system->engine(), service_options);
      EXPECT_TRUE(second_created.ok());
      second_service = std::move(second_created.value());
      EXPECT_TRUE(registry.Register("twin", second_service.get()).ok());
    }
    QueryServerOptions server_options;
    auto started = QueryServer::Start(&registry, server_options);
    EXPECT_TRUE(started.ok()) << started.status().ToString();
    server = std::move(started.value());
  }

  ~ServerFixture() {
    if (server != nullptr) server->Shutdown();
    if (service != nullptr) service->Shutdown();
    if (second_service != nullptr) second_service->Shutdown();
  }

  Result<HttpClient> Connect() {
    return HttpClient::Connect("127.0.0.1", server->port());
  }

  /// Engine-direct reference through the same canonical ExecuteSpec path.
  Result<core::TopKResult> Reference(const core::QuerySpec& spec) {
    return system->engine()->ExecuteSpec(spec);
  }

  std::unique_ptr<DemoSystem> system;
  std::unique_ptr<service::QueryService> service;
  std::unique_ptr<DemoSystem> second_system;
  std::unique_ptr<service::QueryService> second_service;
  service::EngineRegistry registry;
  std::unique_ptr<QueryServer> server;
};

void ExpectEntriesMatch(const JsonValue& entries,
                        const core::TopKResult& expected) {
  ASSERT_TRUE(entries.is_array());
  ASSERT_EQ(entries.array_items().size(), expected.entries.size());
  for (size_t i = 0; i < expected.entries.size(); ++i) {
    const JsonValue& entry = entries.array_items()[i];
    ASSERT_NE(entry.Find("input_id"), nullptr);
    ASSERT_NE(entry.Find("value"), nullptr);
    EXPECT_EQ(entry.Find("input_id")->int_value(),
              static_cast<int64_t>(expected.entries[i].input_id));
    // Bit-identical: %.17g round-trips doubles exactly.
    EXPECT_EQ(entry.Find("value")->number_value(),
              expected.entries[i].value);
  }
}

/// The /v1/stats section of `model`; nullptr when absent.
const JsonValue* FindModelStats(const JsonValue& stats,
                                const std::string& model) {
  const JsonValue* models = stats.Find("models");
  if (models == nullptr || !models->is_array()) return nullptr;
  for (const JsonValue& section : models->array_items()) {
    const JsonValue* name = section.Find("model");
    if (name != nullptr && name->is_string() &&
        name->string_value() == model) {
      return &section;
    }
  }
  return nullptr;
}

TEST(QueryServerTest, PostQueryMatchesSequentialReference) {
  ServerFixture fix;
  auto client = fix.Connect();
  ASSERT_TRUE(client.ok());

  const std::vector<int>& layers = fix.system->model()->activation_layers();
  for (int i = 0; i < 8; ++i) {
    core::QuerySpec spec;
    spec.layer = layers[static_cast<size_t>(i) % layers.size()];
    spec.neurons = {i % 4, (i % 4 + 2) % 8};
    spec.k = 5;
    spec.session_id = static_cast<uint64_t>(i % 3);
    spec.qos = i % 2 == 0 ? QosClass::kInteractive : QosClass::kBatch;
    if (i % 2 == 1) {
      spec.kind = core::QuerySpec::Kind::kMostSimilar;
      spec.target_id = i;
    }
    auto reference = fix.Reference(spec);
    ASSERT_TRUE(reference.ok());

    auto response = client->Post("/v1/query", core::QuerySpecJson(spec));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status, 200) << response->body;
    auto body = ParseJson(response->body);
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    ASSERT_NE(body->Find("entries"), nullptr);
    ExpectEntriesMatch(*body->Find("entries"), reference.value());
    const JsonValue* stats = body->Find("stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->Find("inputs_run")->int_value(),
              reference->stats.inputs_run);
  }
}

// The same mixed workload from several concurrent clients, once calling the
// service in-process and once over loopback HTTP with one keep-alive
// connection each: every HTTP answer is bit-identical to its in-process one.
TEST(QueryServerTest, ConcurrentClientsMatchInProcess) {
  constexpr int kClients = 4;
  service::QueryServiceOptions service_options;
  service_options.num_workers = kClients;
  ServerFixture fix({}, service_options);
  const std::vector<core::QuerySpec> workload =
      bench_util::MakeMixedWorkload(*fix.system->model(), 24);

  std::vector<core::TopKResult> in_process(workload.size());
  std::vector<std::string> bodies(workload.size());
  std::atomic<int> errors{0};
  for (const bool over_http : {false, true}) {
    std::atomic<size_t> next{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        auto client = fix.Connect();
        if (!client.ok()) ++errors;
        for (size_t i = next++; client.ok() && i < workload.size();
             i = next++) {
          if (over_http) {
            auto response =
                client->Post("/v1/query", core::QuerySpecJson(workload[i]));
            if (!response.ok() || response->status != 200) ++errors;
            if (response.ok()) bodies[i] = response->body;
          } else {
            auto result = fix.service->Execute(workload[i]);
            if (!result.ok()) ++errors;
            if (result.ok()) in_process[i] = std::move(*result);
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  ASSERT_EQ(errors.load(), 0);
  for (size_t i = 0; i < workload.size(); ++i) {
    auto body = ParseJson(bodies[i]);
    ASSERT_TRUE(body.ok()) << bodies[i];
    ASSERT_NE(body->Find("entries"), nullptr) << bodies[i];
    ExpectEntriesMatch(*body->Find("entries"), in_process[i]);
  }
}

TEST(QueryServerTest, GetQueryViaUrlParameters) {
  ServerFixture fix;
  auto client = fix.Connect();
  ASSERT_TRUE(client.ok());

  core::QuerySpec spec;
  spec.layer = fix.system->model()->activation_layers().front();
  spec.neurons = {0, 2, 4};
  spec.k = 5;
  auto reference = fix.Reference(spec);
  ASSERT_TRUE(reference.ok());

  auto response = client->Get(
      "/v1/query?kind=highest&layer=" + std::to_string(spec.layer) +
      "&neurons=0,2,4&k=5&qos=interactive&session_id=7");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  auto body = ParseJson(response->body);
  ASSERT_TRUE(body.ok());
  ExpectEntriesMatch(*body->Find("entries"), reference.value());
}

// The model field routes between registered models: the same query
// addressed to each model returns that model's own (different) answer,
// and the answers are bit-identical to each engine's direct reference.
TEST(QueryServerTest, ModelFieldRoutesBetweenEngines) {
  ServerFixture fix({}, {}, /*second_model=*/true);
  auto client = fix.Connect();
  ASSERT_TRUE(client.ok());

  core::QuerySpec spec;
  spec.layer = fix.system->model()->activation_layers().front();
  spec.neurons = {0, 1, 2};
  spec.k = 5;
  auto reference_a = fix.Reference(spec);
  auto reference_b = fix.second_system->engine()->ExecuteSpec(spec);
  ASSERT_TRUE(reference_a.ok());
  ASSERT_TRUE(reference_b.ok());

  struct Arm {
    std::string model;
    const core::TopKResult* expected;
  };
  const Arm arms[] = {{fix.system->model_name(), &reference_a.value()},
                      {"twin", &reference_b.value()},
                      // No model field -> the default (first registered).
                      {"", &reference_a.value()}};
  for (const Arm& arm : arms) {
    auto response =
        client->Post("/v1/query", core::QuerySpecJson(spec, arm.model));
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->status, 200) << response->body;
    auto body = ParseJson(response->body);
    ASSERT_TRUE(body.ok());
    ExpectEntriesMatch(*body->Find("entries"), *arm.expected);
  }

  // The two models must actually disagree somewhere, or routing would be
  // unobservable.
  bool differ =
      reference_a->entries.size() != reference_b->entries.size();
  for (size_t i = 0; !differ && i < reference_a->entries.size(); ++i) {
    differ = reference_a->entries[i].input_id !=
                 reference_b->entries[i].input_id ||
             reference_a->entries[i].value != reference_b->entries[i].value;
  }
  EXPECT_TRUE(differ);

  // Per-model stats: each arm's queries landed on its own service.
  auto stats = client->Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  auto parsed = ParseJson(stats->body);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* a = FindModelStats(*parsed, fix.system->model_name());
  const JsonValue* b = FindModelStats(*parsed, "twin");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->Find("completed")->int_value(), 2);  // named + default
  EXPECT_EQ(b->Find("completed")->int_value(), 1);
}

TEST(QueryServerTest, ModelsEndpointListsRegistry) {
  ServerFixture fix({}, {}, /*second_model=*/true);
  auto client = fix.Connect();
  ASSERT_TRUE(client.ok());

  auto response = client->Get("/v1/models");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200);
  auto body = ParseJson(response->body);
  ASSERT_TRUE(body.ok());
  const JsonValue* models = body->Find("models");
  ASSERT_NE(models, nullptr);
  ASSERT_TRUE(models->is_array());
  ASSERT_EQ(models->array_items().size(), 2u);
  EXPECT_EQ(models->array_items()[0].string_value(),
            fix.system->model_name());
  EXPECT_EQ(models->array_items()[1].string_value(), "twin");
  EXPECT_EQ(body->Find("default")->string_value(),
            fix.system->model_name());
}

// Declarative text over the wire: POST /v1/ql and GET /v1/ql?ql=... run
// the QL front end through the full service path — same result, same
// exact attribution as the structured encoding.
TEST(QueryServerTest, QlEndpointExecutesDeclarativeText) {
  ServerFixture fix;
  auto client = fix.Connect();
  ASSERT_TRUE(client.ok());

  // A derived-group query — previously inexpressible over the wire.
  core::QuerySpec spec;
  spec.kind = core::QuerySpec::Kind::kHighest;
  spec.layer = fix.system->model()->activation_layers().front();
  spec.top_neurons = 3;
  spec.top_of = 5;
  spec.k = 6;
  auto reference = fix.Reference(spec);
  ASSERT_TRUE(reference.ok());

  // POST body form.
  JsonWriter w;
  w.BeginObject();
  w.Key("ql");
  w.String(spec.ToString());
  w.Key("qos");
  w.String("interactive");
  w.EndObject();
  auto post = client->Post("/v1/ql", w.TakeString());
  ASSERT_TRUE(post.ok());
  ASSERT_EQ(post->status, 200) << post->body;
  auto post_body = ParseJson(post->body);
  ASSERT_TRUE(post_body.ok());
  ExpectEntriesMatch(*post_body->Find("entries"), reference.value());
  EXPECT_EQ(post_body->Find("stats")->Find("inputs_run")->int_value(),
            reference->stats.inputs_run);

  // GET parameter form (percent-encoded QL text).
  auto get = client->Get("/v1/ql?ql=" + PercentEncode(spec.ToString()));
  ASSERT_TRUE(get.ok());
  ASSERT_EQ(get->status, 200) << get->body;
  auto get_body = ParseJson(get->body);
  ASSERT_TRUE(get_body.ok());
  ExpectEntriesMatch(*get_body->Find("entries"), reference.value());

  // The structured wire encoding of the same derived-group spec agrees.
  auto structured = client->Post("/v1/query", core::QuerySpecJson(spec));
  ASSERT_TRUE(structured.ok());
  ASSERT_EQ(structured->status, 200) << structured->body;
  auto structured_body = ParseJson(structured->body);
  ASSERT_TRUE(structured_body.ok());
  ExpectEntriesMatch(*structured_body->Find("entries"), reference.value());

  // ql + structured query fields is a contradiction, not a merge.
  auto conflict = client->Post(
      "/v1/ql",
      R"json({"ql":"SELECT TOPK 5 HIGHEST FOR LAYER 1 NEURONS (1)","k":9})json");
  ASSERT_TRUE(conflict.ok());
  EXPECT_EQ(conflict->status, 400);
  // /v1/ql without ql text is an error, not an empty query.
  auto missing = client->Post("/v1/ql", R"({"qos":"batch"})");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 400);
}

TEST(QueryServerTest, StreamingEmitsProgressThenResult) {
  ServerFixture fix;
  auto client = fix.Connect();
  ASSERT_TRUE(client.ok());

  core::QuerySpec spec;
  spec.kind = core::QuerySpec::Kind::kHighest;
  spec.layer = fix.system->model()->activation_layers().front();
  spec.neurons = {0, 1, 2, 3};
  spec.k = 10;
  auto reference = fix.Reference(spec);
  ASSERT_TRUE(reference.ok());

  int progress_events = 0;
  int result_events = 0;
  int64_t last_round = -1;
  size_t last_confirmed = 0;
  bool progress_after_result = false;
  auto response = client->GetStream(
      "/v1/query?stream=1&kind=highest&layer=" +
          std::to_string(spec.layer) + "&neurons=0,1,2,3&k=10",
      [&](const std::string& line) {
        auto event = ParseJson(line);
        EXPECT_TRUE(event.ok()) << line;
        if (!event.ok()) return true;
        const std::string kind = event->Find("event")->string_value();
        if (kind == "progress") {
          if (result_events > 0) progress_after_result = true;
          ++progress_events;
          EXPECT_GT(event->Find("round")->int_value(), last_round);
          last_round = event->Find("round")->int_value();
          const size_t confirmed =
              event->Find("confirmed")->array_items().size();
          EXPECT_GE(confirmed, last_confirmed);
          last_confirmed = confirmed;
        } else if (kind == "result") {
          ++result_events;
          ExpectEntriesMatch(*event->Find("entries"), reference.value());
        }
        return true;
      });
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->HeaderOrEmpty("content-type"), "application/x-ndjson");
  EXPECT_GE(progress_events, 1);
  EXPECT_EQ(result_events, 1);
  EXPECT_FALSE(progress_after_result);
}

// Streaming composes with the declarative endpoint: a POST /v1/ql body
// carrying "stream":1 (the body form of the flag, like "model") delivers
// NDJSON progress for QL text.
TEST(QueryServerTest, StreamingQlQuery) {
  ServerFixture fix;
  auto client = fix.Connect();
  ASSERT_TRUE(client.ok());

  core::QuerySpec spec;
  spec.kind = core::QuerySpec::Kind::kHighest;
  spec.layer = fix.system->model()->activation_layers().front();
  spec.neurons = {0, 1, 2, 3};
  spec.k = 10;
  auto reference = fix.Reference(spec);
  ASSERT_TRUE(reference.ok());

  JsonWriter w;
  w.BeginObject();
  w.Key("ql");
  w.String(spec.ToString());
  w.Key("stream");
  w.Int(1);
  w.EndObject();
  int progress_events = 0;
  int result_events = 0;
  bool final_matches = false;
  auto response = client->PostStream(
      "/v1/ql", w.TakeString(), [&](const std::string& line) {
        auto event = ParseJson(line);
        if (!event.ok()) return true;
        const JsonValue* kind = event->Find("event");
        if (kind == nullptr) return true;
        if (kind->string_value() == "progress") ++progress_events;
        if (kind->string_value() == "result") {
          ++result_events;
          const JsonValue* entries = event->Find("entries");
          final_matches = entries != nullptr;
          if (final_matches) {
            ExpectEntriesMatch(*entries, reference.value());
          }
        }
        return true;
      });
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_GE(progress_events, 1);
  EXPECT_EQ(result_events, 1);
  EXPECT_TRUE(final_matches);
}

/// A gate that holds a service worker inside a blocker query's progress
/// sink until Open(). Shared with the sink, which may still run after a
/// test body returns early.
struct WorkerGate {
  std::promise<void> open;
  std::shared_future<void> opened = open.get_future().share();
  std::promise<void> held;
  std::atomic<bool> holding{false};
  std::atomic<bool> is_open{false};

  void Open() {
    if (!is_open.exchange(true)) open.set_value();
  }
};

/// Opens the gate on every exit path. Declared after the fixture, it runs
/// before the service shuts down, so a failed assertion never leaves the
/// worker blocked.
struct OpenOnExit {
  std::shared_ptr<WorkerGate> gate;
  ~OpenOnExit() { gate->Open(); }
};

/// Submits a blocker query whose progress sink waits on `gate`, and returns
/// once the blocker holds a worker. With a one-worker service, any query
/// submitted afterwards stays queued — admitted and live, but not running —
/// until the gate opens, however fast queries run.
void HoldOnlyWorker(ServerFixture* fix, const std::shared_ptr<WorkerGate>& gate,
                    service::Submission* blocker) {
  ASSERT_EQ(fix->service->options().num_workers, 1);
  std::future<void> held = gate->held.get_future();
  core::QuerySpec spec;
  spec.layer = fix->system->model()->activation_layers().front();
  spec.neurons = {0, 1, 2, 3};
  // k = every input: the blocker cannot finish in its first round, so its
  // sink runs at least once.
  spec.k = static_cast<int>(fix->system->dataset()->size());
  spec.on_progress = [gate](const core::NtaProgress&) {
    if (!gate->holding.exchange(true)) gate->held.set_value();
    gate->opened.wait();
    return true;
  };
  auto submitted = fix->service->SubmitWithControl(std::move(spec));
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  *blocker = std::move(submitted.value());
  ASSERT_EQ(held.wait_for(std::chrono::seconds(30)), std::future_status::ready)
      << "the blocker never reached its progress sink";
}

TEST(QueryServerTest, DisconnectCancelsStreamingQuery) {
  // The streamed query is held in the queue until the client has gone, so
  // it always runs after the disconnect; its slow rounds give the peer's
  // reset time to arrive between progress writes.
  DemoSystemOptions demo_options;
  demo_options.device_latency_scale = 8.0;
  service::QueryServiceOptions service_options;
  service_options.num_workers = 1;
  ServerFixture fix(demo_options, service_options);
  auto client = fix.Connect();
  ASSERT_TRUE(client.ok());
  auto gate = std::make_shared<WorkerGate>();
  OpenOnExit open_on_exit{gate};
  service::Submission blocker;
  ASSERT_NO_FATAL_FAILURE(HoldOnlyWorker(&fix, gate, &blocker));

  int seen = 0;
  auto response = client->GetStream(
      "/v1/query?stream=1&kind=highest&layer=" +
          std::to_string(fix.system->model()->activation_layers().front()) +
          "&neurons=0,1,2,3&k=10",
      [&](const std::string&) {
        ++seen;
        return false;  // hard-disconnect after the first event
      });
  ASSERT_TRUE(response.ok());
  ASSERT_GE(seen, 1);
  EXPECT_FALSE(client->connected());
  gate->Open();

  // The server notices at its next failed chunk write, flips the query's
  // context to cancelled, and NTA aborts between rounds.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int64_t cancelled = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    cancelled = fix.service->Snapshot().cancelled;
    if (cancelled > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(cancelled, 1)
      << "disconnect did not surface as a cancelled query";
}

TEST(QueryServerTest, DeadlineZeroRejectedWithoutInference) {
  ServerFixture fix;
  auto client = fix.Connect();
  ASSERT_TRUE(client.ok());

  const std::string body =
      R"({"kind":"highest","layer":)" +
      std::to_string(fix.system->model()->activation_layers().front()) +
      R"(,"neurons":[0,1],"k":3,"deadline_ms":0})";
  auto response = client->Post("/v1/query", body);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 504) << response->body;
  auto parsed = ParseJson(response->body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("error")->Find("code")->string_value(),
            "DeadlineExceeded");

  const service::ServiceStats stats = fix.service->Snapshot();
  EXPECT_EQ(stats.rejected_past_deadline, 1);  // never ran
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.deadline_exceeded, 0);  // not a mid-query abort
}

TEST(QueryServerTest, ErrorStatusMapping) {
  ServerFixture fix;
  auto client = fix.Connect();
  ASSERT_TRUE(client.ok());

  struct Case {
    const char* name;
    const char* target;
    const char* body;  // nullptr = GET
    int expected_status;
  };
  const std::string valid_layer =
      std::to_string(fix.system->model()->activation_layers().front());
  const std::string bad_k_body =
      R"({"kind":"highest","layer":)" + valid_layer +
      R"(,"neurons":[0],"k":0})";
  const std::string wrong_model_body =
      R"({"model":"NotServed","kind":"highest","layer":)" + valid_layer +
      R"(,"neurons":[0],"k":3})";
  const std::string bad_layer_body =
      R"({"kind":"highest","layer":9999,"neurons":[0],"k":3})";
  const Case cases[] = {
      {"unknown route", "/v1/nope", nullptr, 404},
      {"bad JSON", "/v1/query", "{not json", 400},
      {"non-object body", "/v1/query", "[1,2]", 400},
      {"missing layer", "/v1/query", R"({"neurons":[0]})", 400},
      {"missing neurons", "/v1/query", R"({"layer":1})", 400},
      {"k=0", "/v1/query", bad_k_body.c_str(), 400},
      {"wrong model", "/v1/query", wrong_model_body.c_str(), 404},
      {"unknown layer", "/v1/query", bad_layer_body.c_str(), 400},
      {"most_similar without target", "/v1/query",
       R"({"kind":"most_similar","layer":1,"neurons":[0]})", 400},
      {"bad qos", "/v1/query",
       R"({"kind":"highest","layer":1,"neurons":[0],"qos":"urgent"})", 400},
      // Unified validation: duplicate and negative neuron indices are the
      // same InvalidArgument every entry point produces.
      {"duplicate neuron", "/v1/query",
       R"({"kind":"highest","layer":1,"neurons":[2,2],"k":3})", 400},
      {"negative neuron", "/v1/query",
       R"({"kind":"highest","layer":1,"neurons":[-3],"k":3})", 400},
      {"explicit + derived group", "/v1/query",
       R"({"kind":"highest","layer":1,"neurons":[0],"top_neurons":2,)"
       R"("top_of":1,"k":3})", 400},
      // top_of on an explicit group would be silently ignored — the
      // caller almost certainly dropped top_neurons; reject, don't guess.
      {"top_of without top_neurons", "/v1/query",
       R"({"kind":"highest","layer":1,"neurons":[0],"top_of":7,"k":3})",
       400},
      // target_id on a highest query would be silently ignored — the
      // caller almost certainly forgot kind=most_similar.
      {"target_id on highest", "/v1/query",
       R"({"layer":1,"neurons":[0],"target_id":7,"k":3})", 400},
      {"bad distance", "/v1/query",
       R"({"kind":"highest","layer":1,"neurons":[0],"distance":"cosine"})",
       400},
      // Out-of-int64-range and fractional integers must 400, not be
      // truncated into a different (or UB-producing) query.
      {"huge layer", "/v1/query",
       R"({"kind":"highest","layer":1e300,"neurons":[0],"k":3})", 400},
      {"fractional k", "/v1/query",
       R"({"kind":"highest","layer":1,"neurons":[0],"k":2.5})", 400},
      // 2^32+2 fits int64 but wraps int: must 400, not become k=2.
      {"int-wrapping k", "/v1/query",
       R"({"kind":"highest","layer":1,"neurons":[0],"k":4294967298})", 400},
      {"fractional neuron", "/v1/query",
       R"({"kind":"highest","layer":1,"neurons":[1.9],"k":3})", 400},
  };
  for (const Case& c : cases) {
    auto response = c.body == nullptr
                        ? client->Get(c.target)
                        : client->Post(c.target, c.body);
    ASSERT_TRUE(response.ok()) << c.name;
    EXPECT_EQ(response->status, c.expected_status)
        << c.name << ": " << response->body;
  }

  // Wrong method on a fixed route.
  auto bad_method = client->Post("/v1/stats", "{}");
  ASSERT_TRUE(bad_method.ok());
  EXPECT_EQ(bad_method->status, 405);
  auto bad_models_method = client->Post("/v1/models", "{}");
  ASSERT_TRUE(bad_models_method.ok());
  EXPECT_EQ(bad_models_method->status, 405);
}

TEST(QueryServerTest, StatsEndpointReportsPerModelSections) {
  ServerFixture fix;
  auto client = fix.Connect();
  ASSERT_TRUE(client.ok());

  // Run one query so the counters move.
  const std::string body =
      R"({"kind":"highest","layer":)" +
      std::to_string(fix.system->model()->activation_layers().front()) +
      R"(,"neurons":[0,1],"k":3,"qos":"interactive"})";
  ASSERT_EQ(client->Post("/v1/query", body)->status, 200);

  auto response = client->Get("/v1/stats");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200);
  auto stats = ParseJson(response->body);
  ASSERT_TRUE(stats.ok()) << response->body;
  EXPECT_EQ(stats->Find("default_model")->string_value(),
            fix.system->model_name());
  const JsonValue* section =
      FindModelStats(*stats, fix.system->model_name());
  ASSERT_NE(section, nullptr);
  EXPECT_EQ(section->Find("submitted")->int_value(), 1);
  EXPECT_EQ(section->Find("completed")->int_value(), 1);
  const JsonValue* per_class = section->Find("per_class");
  ASSERT_NE(per_class, nullptr);
  ASSERT_EQ(per_class->array_items().size(),
            static_cast<size_t>(kNumQosClasses));
  EXPECT_EQ(per_class->array_items()[0].Find("class")->string_value(),
            "interactive");
  EXPECT_EQ(per_class->array_items()[0].Find("completed")->int_value(), 1);
}

/// Sum of the `inputs_run` attrs across the spans that partition a query's
/// inference (nta.round / nta.target / index.ensure / resolve_group —
/// compute_layer spans use the key `inputs` precisely so they are not
/// double-counted here).
int64_t SumInputsRunAttrs(const JsonValue& trace) {
  int64_t sum = 0;
  for (const JsonValue& span : trace.Find("spans")->array_items()) {
    const JsonValue* attrs = span.Find("attrs");
    if (attrs == nullptr) continue;
    const JsonValue* inputs_run = attrs->Find("inputs_run");
    if (inputs_run != nullptr) sum += inputs_run->int_value();
  }
  return sum;
}

TEST(QueryServerTest, TraceFlagReturnsSpanTreeWithExactAttribution) {
  ServerFixture fix;
  auto client = fix.Connect();
  ASSERT_TRUE(client.ok());

  core::QuerySpec spec;
  spec.layer = fix.system->model()->activation_layers().front();
  spec.neurons = {0, 1, 2};
  spec.k = 8;
  auto response =
      client->Post("/v1/query?trace=1", core::QuerySpecJson(spec));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  auto body = ParseJson(response->body);
  ASSERT_TRUE(body.ok());

  const JsonValue* trace = body->Find("trace");
  ASSERT_NE(trace, nullptr) << response->body;
  EXPECT_TRUE(trace->Find("complete")->bool_value());
  EXPECT_EQ(trace->Find("dropped_spans")->int_value(), 0);
  const uint64_t trace_id =
      static_cast<uint64_t>(trace->Find("trace_id")->int_value());
  EXPECT_GT(trace_id, 0u);

  const std::vector<JsonValue>& spans = trace->Find("spans")->array_items();
  ASSERT_GE(spans.size(), 4u);  // query, queue_wait, execute, serialize
  EXPECT_EQ(spans[0].Find("name")->string_value(), "query");
  EXPECT_EQ(spans[0].Find("parent")->int_value(), -1);

  // The root's direct children (queue_wait + execute + serialize) must
  // cover nearly all of the query's wall time — the point of the trace is
  // that no phase goes unaccounted. 0.90 here (0.95 in the unsanitized
  // e2e client) leaves slop for sanitizer scheduling noise.
  const int64_t root_duration = spans[0].Find("duration_nanos")->int_value();
  ASSERT_GT(root_duration, 0);
  int64_t child_duration = 0;
  bool saw_execute = false;
  bool saw_serialize = false;
  for (const JsonValue& span : spans) {
    if (span.Find("parent")->int_value() == 0) {
      child_duration += span.Find("duration_nanos")->int_value();
      const std::string& name = span.Find("name")->string_value();
      if (name == "execute") saw_execute = true;
      if (name == "serialize") saw_serialize = true;
    }
  }
  EXPECT_TRUE(saw_execute);
  EXPECT_TRUE(saw_serialize);
  EXPECT_GE(static_cast<double>(child_duration),
            0.90 * static_cast<double>(root_duration))
      << "children cover " << child_duration << " of " << root_duration;

  // Per-span inputs_run attrs partition the query's receipt total exactly.
  EXPECT_EQ(SumInputsRunAttrs(*trace),
            body->Find("stats")->Find("inputs_run")->int_value());

  // The finished trace is also retrievable from the ring by id.
  auto by_id = client->Get("/v1/trace/" + std::to_string(trace_id));
  ASSERT_TRUE(by_id.ok());
  EXPECT_EQ(by_id->status, 200) << by_id->body;
  auto ring_copy = ParseJson(by_id->body);
  ASSERT_TRUE(ring_copy.ok());
  EXPECT_EQ(static_cast<uint64_t>(
                ring_copy->Find("trace_id")->int_value()),
            trace_id);

  // Unknown id → 404; non-numeric id → 400.
  EXPECT_EQ(client->Get("/v1/trace/999999999999")->status, 404);
  EXPECT_EQ(client->Get("/v1/trace/abc")->status, 400);
}

TEST(QueryServerTest, TraceIsNotInlinedWithoutTheFlag) {
  ServerFixture fix;
  auto client = fix.Connect();
  ASSERT_TRUE(client.ok());
  core::QuerySpec spec;
  spec.layer = fix.system->model()->activation_layers().front();
  spec.neurons = {0};
  spec.k = 3;
  auto response = client->Post("/v1/query", core::QuerySpecJson(spec));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200);
  auto body = ParseJson(response->body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->Find("trace"), nullptr);
}

TEST(QueryServerTest, StreamingTraceEventArrivesAfterResult) {
  ServerFixture fix;
  auto client = fix.Connect();
  ASSERT_TRUE(client.ok());

  std::vector<std::string> event_order;
  int64_t traced_spans = 0;
  auto response = client->GetStream(
      "/v1/query?stream=1&trace=1&kind=highest&layer=" +
          std::to_string(fix.system->model()->activation_layers().front()) +
          "&neurons=0,1,2,3&k=10",
      [&](const std::string& line) {
        auto event = ParseJson(line);
        EXPECT_TRUE(event.ok()) << line;
        if (!event.ok()) return true;
        event_order.push_back(event->Find("event")->string_value());
        if (event_order.back() == "trace") {
          const JsonValue* trace = event->Find("trace");
          EXPECT_NE(trace, nullptr);
          if (trace != nullptr) {
            traced_spans = static_cast<int64_t>(
                trace->Find("spans")->array_items().size());
            EXPECT_TRUE(trace->Find("complete")->bool_value());
          }
        }
        return true;
      });
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  ASSERT_GE(event_order.size(), 2u);
  EXPECT_EQ(event_order[event_order.size() - 2], "result");
  EXPECT_EQ(event_order.back(), "trace");
  EXPECT_GE(traced_spans, 4);
}

TEST(QueryServerTest, MetricsEndpointServesValidPrometheusText) {
  ServerFixture fix({}, {}, /*second_model=*/true);
  auto client = fix.Connect();
  ASSERT_TRUE(client.ok());

  // Complete one query so the counters have something to say.
  core::QuerySpec spec;
  spec.layer = fix.system->model()->activation_layers().front();
  spec.neurons = {0, 1};
  spec.k = 5;
  ASSERT_EQ(client->Post("/v1/query", core::QuerySpecJson(spec))->status,
            200);

  auto response = client->Get("/v1/metrics");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200);
  EXPECT_EQ(response->HeaderOrEmpty("content-type").rfind("text/plain", 0),
            0u);
  const Status valid = service::ValidatePrometheusText(response->body);
  EXPECT_TRUE(valid.ok()) << valid.ToString();

  // Per-model counters for both registered models.
  EXPECT_NE(response->body.find("deepeverest_queries_completed_total{model=\"" +
                                fix.system->model_name() + "\"} 1"),
            std::string::npos)
      << response->body;
  EXPECT_NE(response->body.find(
                "deepeverest_queries_completed_total{model=\"twin\"} 0"),
            std::string::npos);
  // Latency histogram series per QoS class, HTTP counters, build info.
  EXPECT_NE(response->body.find("deepeverest_query_latency_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(response->body.find("deepeverest_http_requests_total"),
            std::string::npos);
  EXPECT_NE(response->body.find("deepeverest_build_info{"),
            std::string::npos);
  // This test made only successful requests: the 5xx family reads 0.
  EXPECT_NE(
      response->body.find("deepeverest_http_responses_total{code=\"5xx\"} 0"),
      std::string::npos);
}

TEST(QueryServerTest, SlowQueryEmitsStructuredLogLine) {
  namespace log = internal_logging;
  std::mutex mu;
  std::vector<std::string> lines;
  log::SetLogSink([&mu, &lines](log::LogLevel level, const char*, int,
                                const std::string& message) {
    if (level == log::LogLevel::kWarning) {
      std::lock_guard<std::mutex> lock(mu);
      lines.push_back(message);
    }
  });

  {
    service::QueryServiceOptions service_options;
    // Every query is "slow" at this threshold, so one query suffices.
    service_options.slow_query_seconds = 1e-9;
    ServerFixture fix({}, service_options);
    auto client = fix.Connect();
    ASSERT_TRUE(client.ok());
    core::QuerySpec spec;
    spec.layer = fix.system->model()->activation_layers().front();
    spec.neurons = {0, 1};
    spec.k = 5;
    spec.session_id = 77;
    ASSERT_EQ(client->Post("/v1/query", core::QuerySpecJson(spec))->status,
              200);
  }
  log::SetLogSink(nullptr);

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_GE(lines.size(), 1u);
  const std::string& line = lines.front();
  EXPECT_EQ(line.rfind("slow_query trace_id=", 0), 0u) << line;
  EXPECT_NE(line.find("session=77"), std::string::npos) << line;
  EXPECT_NE(line.find("status=OK"), std::string::npos) << line;
  EXPECT_NE(line.find("latency_s="), std::string::npos) << line;
  EXPECT_NE(line.find("spans=\""), std::string::npos) << line;
}

TEST(QueryServerTest, HealthzAndModelName) {
  ServerFixture fix;
  auto client = fix.Connect();
  ASSERT_TRUE(client.ok());
  auto health = client->Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
  auto health_json = ParseJson(health->body);
  ASSERT_TRUE(health_json.ok());
  EXPECT_EQ(health_json->Find("status")->string_value(), "ok");
  EXPECT_GE(health_json->Find("uptime_seconds")->number_value(), 0.0);
  EXPECT_GT(health_json->Find("start_unix_seconds")->number_value(), 0.0);
  const JsonValue* build = health_json->Find("build");
  ASSERT_NE(build, nullptr);
  EXPECT_FALSE(build->Find("compiler")->string_value().empty());
  EXPECT_FALSE(build->Find("build_type")->string_value().empty());

  // Matching model name is accepted.
  const std::string body = R"({"model":")" + fix.system->model_name() +
                           R"(","kind":"highest","layer":)" +
                           std::to_string(fix.system->model()
                                              ->activation_layers()
                                              .front()) +
                           R"(,"neurons":[0],"k":3})";
  EXPECT_EQ(client->Post("/v1/query", body)->status, 200);
}

// Every result carries its query_id, and per-model /v1/stats sections carry
// the live-state breakdown plus the preemption counters.
TEST(QueryServerTest, ResultCarriesQueryIdAndStatsCarryStates) {
  ServerFixture fix;
  auto client = fix.Connect();
  ASSERT_TRUE(client.ok());

  const std::string body =
      R"({"kind":"highest","layer":)" +
      std::to_string(fix.system->model()->activation_layers().front()) +
      R"(,"neurons":[0,1],"k":3})";
  auto response = client->Post("/v1/query", body);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  auto parsed = ParseJson(response->body);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* query_id = parsed->Find("query_id");
  ASSERT_NE(query_id, nullptr);
  EXPECT_GT(query_id->int_value(), 0);
  // The id is the trace id: the span tree is fetchable under it.
  auto trace = client->Get("/v1/trace/" +
                           std::to_string(query_id->int_value()));
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->status, 200) << trace->body;

  auto stats = client->Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->status, 200);
  auto stats_json = ParseJson(stats->body);
  ASSERT_TRUE(stats_json.ok());
  const JsonValue* section =
      FindModelStats(*stats_json, fix.system->model_name());
  ASSERT_NE(section, nullptr);
  const JsonValue* states = section->Find("states");
  ASSERT_NE(states, nullptr);
  EXPECT_EQ(states->Find("queued")->int_value(), 0);
  EXPECT_EQ(states->Find("running")->int_value(), 0);
  EXPECT_EQ(states->Find("parked")->int_value(), 0);
  EXPECT_EQ(section->Find("parked")->int_value(), 0);
  ASSERT_NE(section->Find("parked_total"), nullptr);
  ASSERT_NE(section->Find("resumed_total"), nullptr);
  ASSERT_NE(section->Find("preemptions"), nullptr);
}

// DELETE /v1/query/<id> cancels a live streaming query: the stream's
// `accepted` event names the id, a second connection deletes it, and the
// stream terminates with a Cancelled error event.
TEST(QueryServerTest, DeleteCancelsLiveQueryById) {
  // The streamed query stays queued behind a held worker until its DELETE
  // has landed; the gate opens only after the DELETE's reply.
  service::QueryServiceOptions service_options;
  service_options.num_workers = 1;
  ServerFixture fix({}, service_options);
  auto client = fix.Connect();
  ASSERT_TRUE(client.ok());
  auto canceller = fix.Connect();
  ASSERT_TRUE(canceller.ok());
  auto gate = std::make_shared<WorkerGate>();
  OpenOnExit open_on_exit{gate};
  service::Submission blocker;
  ASSERT_NO_FATAL_FAILURE(HoldOnlyWorker(&fix, gate, &blocker));

  uint64_t query_id = 0;
  std::string final_event;
  const auto cancel_live = [&](uint64_t id) {
    auto cancel = canceller->Request("DELETE",
                                     "/v1/query/" + std::to_string(id));
    ASSERT_TRUE(cancel.ok());
    EXPECT_EQ(cancel->status, 200) << cancel->body;
    auto body = ParseJson(cancel->body);
    ASSERT_TRUE(body.ok()) << cancel->body;
    const JsonValue* requested = body->Find("cancel_requested");
    ASSERT_NE(requested, nullptr) << cancel->body;
    EXPECT_TRUE(requested->bool_value());
  };
  const auto on_event = [&](const std::string& line) {
    auto event = ParseJson(line);
    ASSERT_TRUE(event.ok()) << line;
    const JsonValue* kind = event->Find("event");
    ASSERT_NE(kind, nullptr) << line;
    if (kind->string_value() == "accepted") {
      const JsonValue* id = event->Find("query_id");
      ASSERT_NE(id, nullptr) << line;
      query_id = static_cast<uint64_t>(id->int_value());
      EXPECT_GT(query_id, 0u);
      cancel_live(query_id);
      gate->Open();
    } else if (kind->string_value() == "error" ||
               kind->string_value() == "result") {
      final_event = line;
    }
  };
  auto response = client->GetStream(
      "/v1/query?stream=1&kind=highest&layer=" +
          std::to_string(fix.system->model()->activation_layers().front()) +
          "&neurons=0,1,2,3&k=10",
      [&](const std::string& line) {
        on_event(line);
        return true;
      });
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_GT(query_id, 0u);
  auto final_json = ParseJson(final_event);
  ASSERT_TRUE(final_json.ok()) << final_event;
  ASSERT_NE(final_json->Find("event"), nullptr) << final_event;
  EXPECT_EQ(final_json->Find("event")->string_value(), "error");
  ASSERT_NE(final_json->Find("code"), nullptr) << final_event;
  EXPECT_EQ(final_json->Find("code")->string_value(), "Cancelled");
  EXPECT_EQ(fix.service->Snapshot().cancelled, 1);
  // The blocker itself was never cancelled and completes normally.
  EXPECT_TRUE(blocker.result.get().ok());

  // Once finished the id is no longer live: a second DELETE is 404. A
  // non-numeric id is a 400, an unknown numeric id a 404.
  EXPECT_EQ(canceller
                ->Request("DELETE", "/v1/query/" + std::to_string(query_id))
                ->status,
            404);
  EXPECT_EQ(canceller->Request("DELETE", "/v1/query/bogus")->status, 400);
  EXPECT_EQ(canceller->Request("DELETE", "/v1/query/999999999")->status, 404);
  // Other methods on the route are rejected.
  EXPECT_EQ(canceller->Get("/v1/query/" + std::to_string(query_id))->status,
            405);
}

// Every route answers 405 to a method it does not serve, and the body says
// so; an unknown path stays a 404 whatever the method.
TEST(QueryServerTest, EveryRouteRejectsMethodsItDoesNotServe) {
  ServerFixture fix;
  auto client = fix.Connect();
  ASSERT_TRUE(client.ok());
  const std::pair<const char*, const char*> wrong[] = {
      {"POST", "/healthz"},          {"PUT", "/healthz"},
      {"POST", "/v1/metrics"},       {"DELETE", "/v1/metrics"},
      {"GET", "/v1/query/7"},        {"POST", "/v1/query/7"},
      {"POST", "/v1/trace/7"},       {"DELETE", "/v1/trace/7"},
      {"POST", "/v1/models"},        {"DELETE", "/v1/models"},
      {"GET", "/v1/ingest"},         {"DELETE", "/v1/ingest"},
      {"POST", "/v1/snapshot"},      {"DELETE", "/v1/snapshot"},
      {"GET", "/v1/snapshot/save"},  {"DELETE", "/v1/snapshot/save"},
      {"POST", "/v1/stats"},         {"PUT", "/v1/stats"},
      {"DELETE", "/v1/query"},       {"PUT", "/v1/query"},
      {"DELETE", "/v1/ql"},          {"PATCH", "/v1/ql"},
  };
  for (const auto& [method, target] : wrong) {
    auto response = client->Request(method, target);
    ASSERT_TRUE(response.ok()) << method << " " << target;
    EXPECT_EQ(response->status, 405) << method << " " << target;
    EXPECT_EQ(response->body, "method not allowed\n")
        << method << " " << target;
  }
  for (const char* method : {"GET", "POST", "DELETE"}) {
    auto response = client->Request(method, "/v1/nope");
    ASSERT_TRUE(response.ok()) << method;
    EXPECT_EQ(response->status, 404) << method;
    auto body = ParseJson(response->body);
    ASSERT_TRUE(body.ok()) << response->body;
    EXPECT_EQ(body->Find("error")->Find("code")->string_value(), "NotFound");
  }
}

/// An ingest pipeline whose counters never move: it puts the ingest
/// sections of the served surfaces on display without a persist stack.
class FixedIngestSink : public service::IngestSink {
 public:
  FixedIngestSink() {
    stats_.dataset_size = 200;
    stats_.ingested_total = 24;
    stats_.rejected_total = 3;
    stats_.applies_total = 5;
    stats_.min_watermark = 192;
    stats_.layers = {{1, 192}, {3, 200}};
    stats_.snapshots_written = 2;
    stats_.snapshot_bytes = 4096;
    stats_.snapshot_age_seconds = 12.5;
    stats_.snapshot_dataset_size = 176;
  }
  Result<service::IngestAck> Ingest(
      const std::vector<service::IngestInput>&) override {
    return Status::FailedPrecondition("fixed ingest stub");
  }
  service::IngestStats Stats() const override { return stats_; }
  Status SaveSnapshot() override { return Status::OK(); }

 private:
  service::IngestStats stats_;
};

/// Two models behind one server: "iqa-batch" runs an IQA engine on a
/// four-worker service (cross-query batching on); "ingest-stub" runs the
/// plain demo engine on one worker (batching off) with a FixedIngestSink.
struct SurfaceFixture {
  SurfaceFixture() {
    DemoSystemOptions iqa_demo;
    iqa_demo.preprocess = false;
    iqa_system = std::move(DemoSystem::Make(iqa_demo).value());
    core::DeepEverestOptions engine_options;
    engine_options.batch_size = 8;
    engine_options.enable_iqa = true;
    engine_options.iqa_capacity_bytes = 1 << 20;
    auto engine = core::DeepEverest::Create(
        iqa_system->model(), iqa_system->dataset(), iqa_system->store(),
        engine_options);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    iqa_engine = std::move(engine.value());
    service::QueryServiceOptions batching;
    batching.num_workers = 4;
    iqa_service =
        std::move(service::QueryService::Create(iqa_engine.get(), batching)
                      .value());

    DemoSystemOptions plain_demo;
    plain_demo.seed = 9;
    plain_system = std::move(DemoSystem::Make(plain_demo).value());
    service::QueryServiceOptions single;
    single.num_workers = 1;
    plain_service = std::move(
        service::QueryService::Create(plain_system->engine(), single).value());

    EXPECT_TRUE(registry.Register("iqa-batch", iqa_service.get()).ok());
    EXPECT_TRUE(registry.Register("ingest-stub", plain_service.get()).ok());
    EXPECT_TRUE(registry.AttachIngest("ingest-stub", &sink).ok());
    auto started = QueryServer::Start(&registry, QueryServerOptions());
    EXPECT_TRUE(started.ok()) << started.status().ToString();
    server = std::move(started.value());
  }

  ~SurfaceFixture() {
    if (server != nullptr) server->Shutdown();
    iqa_service->Shutdown();
    plain_service->Shutdown();
  }

  /// A fixed mixed workload on both models, then both services drained.
  void RunQueriesAndDrain() {
    auto client = HttpClient::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(client.ok());
    for (const char* model : {"iqa-batch", "ingest-stub"}) {
      for (core::QuerySpec spec :
           bench_util::MakeMixedWorkload(*iqa_system->model(), 8)) {
        std::string body = core::QuerySpecJson(spec);
        body.insert(1, std::string(R"("model":")") + model + "\",");
        auto response = client->Post("/v1/query", body);
        ASSERT_TRUE(response.ok());
        ASSERT_EQ(response->status, 200) << response->body;
      }
    }
    iqa_service->Drain();
    plain_service->Drain();
  }

  Result<JsonValue> GetJson(const std::string& target) {
    auto client = HttpClient::Connect("127.0.0.1", server->port());
    DE_RETURN_NOT_OK(client.status());
    DE_ASSIGN_OR_RETURN(HttpResponse response, client->Get(target));
    if (response.status != 200) {
      return Status::Internal(target + " answered " +
                              std::to_string(response.status));
    }
    return ParseJson(response.body);
  }

  std::unique_ptr<DemoSystem> iqa_system;
  std::unique_ptr<core::DeepEverest> iqa_engine;
  std::unique_ptr<service::QueryService> iqa_service;
  std::unique_ptr<DemoSystem> plain_system;
  std::unique_ptr<service::QueryService> plain_service;
  FixedIngestSink sink;
  service::EngineRegistry registry;
  std::unique_ptr<QueryServer> server;
};

const char* JsonKindName(const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "bool";
    case JsonValue::Kind::kNumber: return "number";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kArray: return "array";
    case JsonValue::Kind::kObject: return "object";
  }
  return "?";
}

/// Inserts "path:kind" for `value` and everything under it. Array items
/// share the path "[]", except objects naming a model, which get
/// "[<model>]" so each model's section is pinned on its own.
void CollectKeyPaths(const JsonValue& value, const std::string& path,
                     std::set<std::string>* out) {
  out->insert(path + ":" + JsonKindName(value));
  if (value.is_object()) {
    for (const auto& [key, member] : value.object_members()) {
      CollectKeyPaths(member, path + "." + key, out);
    }
  } else if (value.is_array()) {
    for (const JsonValue& item : value.array_items()) {
      const JsonValue* model = item.Find("model");
      CollectKeyPaths(item,
                      path + "[" +
                          (model != nullptr && model->is_string()
                               ? model->string_value()
                               : "") +
                          "]",
                      out);
    }
  }
}

/// One Prometheus family as scraped: TYPE, HELP, the union of its
/// samples' label keys, and the `model` label values it carries.
struct ScrapedFamily {
  std::string type;
  std::string help;
  std::set<std::string> label_keys;
  std::set<std::string> models;
};

/// Parses an exposition into families plus every sample's value by its
/// full series text (name and label set as rendered).
std::map<std::string, ScrapedFamily> ScrapeFamilies(
    const std::string& text, std::map<std::string, double>* values) {
  std::map<std::string, ScrapedFamily> families;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      const size_t name_end = line.find(' ', 7);
      ScrapedFamily& family = families[line.substr(7, name_end - 7)];
      (line[2] == 'H' ? family.help : family.type) =
          line.substr(name_end + 1);
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    const std::string series = line.substr(0, space);
    (*values)[series] = std::strtod(line.c_str() + space + 1, nullptr);
    std::string name = series.substr(0, series.find('{'));
    if (families.count(name) == 0) {
      for (const char* suffix : {"_bucket", "_sum", "_count"}) {
        const std::string s(suffix);
        if (name.size() > s.size() &&
            name.compare(name.size() - s.size(), s.size(), s) == 0 &&
            families.count(name.substr(0, name.size() - s.size())) != 0) {
          name = name.substr(0, name.size() - s.size());
          break;
        }
      }
    }
    ScrapedFamily& family = families[name];
    const size_t open = series.find('{');
    if (open == std::string::npos) continue;
    // Label values here never contain '"' or ','; split naively.
    std::string labels = series.substr(open + 1, series.size() - open - 2);
    size_t at = 0;
    while (at < labels.size()) {
      const size_t eq = labels.find('=', at);
      const size_t close = labels.find('"', eq + 2);
      const std::string key = labels.substr(at, eq - at);
      family.label_keys.insert(key);
      if (key == "model") {
        family.models.insert(labels.substr(eq + 2, close - eq - 2));
      }
      at = close + 2;
    }
  }
  return families;
}

std::string Join(const std::set<std::string>& items) {
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) out += ",";
    out += item;
  }
  return out;
}

// The serving surface, pinned: every key path (with its JSON kind) of
// /v1/stats, /healthz and /v1/snapshot, and every /v1/metrics family with
// its TYPE, HELP, label keys and the models it reports, for one model with
// IQA and cross-query batching and one with an ingest pipeline.
TEST(QueryServerTest, ServingSurfaceMatchesRecordedSchema) {
  SurfaceFixture fix;
  ASSERT_NO_FATAL_FAILURE(fix.RunQueriesAndDrain());
  std::set<std::string> actual;
  for (const char* target :
       {"/v1/stats", "/healthz", "/v1/snapshot?model=ingest-stub"}) {
    auto json = fix.GetJson(target);
    ASSERT_TRUE(json.ok()) << json.status().ToString();
    const std::string path(target);
    CollectKeyPaths(*json, path.substr(0, path.find('?')), &actual);
  }
  auto client = HttpClient::Connect("127.0.0.1", fix.server->port());
  ASSERT_TRUE(client.ok());
  auto metrics = client->Get("/v1/metrics");
  ASSERT_TRUE(metrics.ok());
  std::map<std::string, double> values;
  for (const auto& [name, family] : ScrapeFamilies(metrics->body, &values)) {
    actual.insert("/v1/metrics " + name + " " + family.type + " {" +
                  Join(family.label_keys) + "} [" + Join(family.models) +
                  "] " + family.help);
  }

  const std::set<std::string> recorded = {
      "/healthz.build.build_type:string",
      "/healthz.build.compiler:string",
      "/healthz.build.cxx_flags:string",
      "/healthz.build.git:string",
      "/healthz.build:object",
      "/healthz.start_unix_seconds:number",
      "/healthz.status:string",
      "/healthz.uptime_seconds:number",
      "/healthz:object",
      "/v1/metrics deepeverest_active_sessions gauge {model} "
      "[ingest-stub,iqa-batch] Sessions with queued work.",
      "/v1/metrics deepeverest_batch_fill_fraction histogram {le,model} "
      "[iqa-batch] Per-batch occupancy fraction at dispatch.",
      "/v1/metrics deepeverest_batch_fill_ratio gauge {model} [iqa-batch] "
      "Mean device-batch occupancy since start, in [0, 1].",
      "/v1/metrics deepeverest_batch_inputs_dispatched_total counter {model} "
      "[iqa-batch] Inputs carried by those batches.",
      "/v1/metrics deepeverest_batch_linger_flushes_total counter {model} "
      "[iqa-batch] Partial batches flushed by the linger window.",
      "/v1/metrics deepeverest_batches_dispatched_total counter {model} "
      "[iqa-batch] Device batches launched by the batching scheduler.",
      "/v1/metrics deepeverest_batches_sealed_by_interactive_total counter "
      "{model} [iqa-batch] Partial batches launched early for an interactive "
      "request.",
      "/v1/metrics deepeverest_build_info gauge {build_type,compiler,git} [] "
      "Build metadata; the value is always 1.",
      "/v1/metrics deepeverest_http_connections_accepted_total counter {} [] "
      "TCP connections accepted by the HTTP front-end.",
      "/v1/metrics deepeverest_http_requests_total counter {} [] HTTP "
      "responses written, including parse-error replies.",
      "/v1/metrics deepeverest_http_responses_total counter {code} [] HTTP "
      "responses by status family.",
      "/v1/metrics deepeverest_ingest_applies_total counter {model} "
      "[ingest-stub] Incremental index apply passes completed.",
      "/v1/metrics deepeverest_ingest_dataset_size gauge {model} "
      "[ingest-stub] Inputs visible to queries (dataset size).",
      "/v1/metrics deepeverest_ingest_rejected_total counter {model} "
      "[ingest-stub] Ingest batches rejected because the apply backlog was "
      "full.",
      "/v1/metrics deepeverest_ingest_watermark gauge {model} [ingest-stub] "
      "Minimum index high-watermark across built layers; equals the dataset "
      "size when the index tier is caught up.",
      "/v1/metrics deepeverest_ingested_inputs_total counter {model} "
      "[ingest-stub] Inputs durably accepted by POST /v1/ingest.",
      "/v1/metrics deepeverest_iqa_cache_bytes gauge {model} [iqa-batch] "
      "Bytes of cached activations.",
      "/v1/metrics deepeverest_iqa_cache_capacity_bytes gauge {model} "
      "[iqa-batch] Configured IQA cache capacity.",
      "/v1/metrics deepeverest_iqa_evictions_total counter {model} "
      "[iqa-batch] IQA activation-cache evictions.",
      "/v1/metrics deepeverest_iqa_hits_total counter {model} [iqa-batch] IQA "
      "activation-cache hits.",
      "/v1/metrics deepeverest_iqa_misses_total counter {model} [iqa-batch] "
      "IQA activation-cache misses.",
      "/v1/metrics deepeverest_preemptions_total counter {model} "
      "[ingest-stub,iqa-batch] Park-and-switch events where a worker handed "
      "itself directly to a waiting interactive query.",
      "/v1/metrics deepeverest_queries_cancelled_total counter {model} "
      "[ingest-stub,iqa-batch] Queries cancelled before or during execution.",
      "/v1/metrics deepeverest_queries_completed_total counter {model} "
      "[ingest-stub,iqa-batch] Queries executed to an OK result.",
      "/v1/metrics deepeverest_queries_deadline_exceeded_total counter "
      "{model} [ingest-stub,iqa-batch] Queries aborted mid-execution by their "
      "deadline.",
      "/v1/metrics deepeverest_queries_failed_total counter {model} "
      "[ingest-stub,iqa-batch] Queries that executed but returned an error.",
      "/v1/metrics deepeverest_queries_inflight gauge {model} "
      "[ingest-stub,iqa-batch] Queries currently executing.",
      "/v1/metrics deepeverest_queries_parked gauge {model} "
      "[ingest-stub,iqa-batch] Queries preempted mid-flight, waiting to be "
      "resumed.",
      "/v1/metrics deepeverest_queries_parked_total counter {model} "
      "[ingest-stub,iqa-batch] Park transitions: non-interactive queries "
      "preempted between NTA rounds to free a worker for interactive work.",
      "/v1/metrics deepeverest_queries_rejected_past_deadline_total counter "
      "{model} [ingest-stub,iqa-batch] Queries whose deadline expired while "
      "queued (never executed).",
      "/v1/metrics deepeverest_queries_rejected_queue_full_total counter "
      "{model} [ingest-stub,iqa-batch] Submissions rejected because the "
      "admission queue was full.",
      "/v1/metrics deepeverest_queries_rejected_session_limit_total counter "
      "{model} [ingest-stub,iqa-batch] Submissions rejected by the "
      "per-session queued-query bound.",
      "/v1/metrics deepeverest_queries_resumed_total counter {model} "
      "[ingest-stub,iqa-batch] Resume transitions: parked queries picked back "
      "up by a worker.",
      "/v1/metrics deepeverest_queries_submitted_total counter {model} "
      "[ingest-stub,iqa-batch] Queries admitted to the service queue.",
      "/v1/metrics deepeverest_query_latency_seconds histogram "
      "{class,le,model} [ingest-stub,iqa-batch] Admission-to-completion "
      "latency of executed queries.",
      "/v1/metrics deepeverest_queue_depth gauge {model} "
      "[ingest-stub,iqa-batch] Admitted queries waiting for a worker.",
      "/v1/metrics deepeverest_server_start_time_seconds gauge {} [] Unix "
      "time the HTTP server started.",
      "/v1/metrics deepeverest_server_uptime_seconds gauge {} [] Seconds "
      "since this HTTP server started.",
      "/v1/metrics deepeverest_service_uptime_seconds gauge {model} "
      "[ingest-stub,iqa-batch] Seconds since this model's service started.",
      "/v1/metrics deepeverest_shared_batches_total counter {model} "
      "[iqa-batch] Batches that served more than one query.",
      "/v1/metrics deepeverest_snapshot_age_seconds gauge {model} "
      "[ingest-stub] Seconds since the last committed snapshot (-1 = none).",
      "/v1/metrics deepeverest_snapshot_bytes gauge {model} [ingest-stub] "
      "On-disk size of the last committed snapshot.",
      "/v1/metrics deepeverest_snapshots_written_total counter {model} "
      "[ingest-stub] Snapshots committed since process start.",
      "/v1/metrics deepeverest_worker_utilization gauge {model} "
      "[ingest-stub,iqa-batch] Worker-pool busy fraction since service start, "
      "in [0, 1].",
      "/v1/snapshot.applies_total:number",
      "/v1/snapshot.dataset_size:number",
      "/v1/snapshot.ingested_total:number",
      "/v1/snapshot.min_watermark:number",
      "/v1/snapshot.model:string",
      "/v1/snapshot.rejected_total:number",
      "/v1/snapshot.snapshot_age_seconds:number",
      "/v1/snapshot.snapshot_bytes:number",
      "/v1/snapshot.snapshot_dataset_size:number",
      "/v1/snapshot.snapshots_written:number",
      "/v1/snapshot.watermarks:array",
      "/v1/snapshot.watermarks[].layer:number",
      "/v1/snapshot.watermarks[].watermark:number",
      "/v1/snapshot.watermarks[]:object",
      "/v1/snapshot:object",
      "/v1/stats.default_model:string",
      "/v1/stats.models:array",
      "/v1/stats.models[ingest-stub].active_sessions:number",
      "/v1/stats.models[ingest-stub].batch_size:number",
      "/v1/stats.models[ingest-stub].batching_enabled:bool",
      "/v1/stats.models[ingest-stub].cancelled:number",
      "/v1/stats.models[ingest-stub].completed:number",
      "/v1/stats.models[ingest-stub].deadline_exceeded:number",
      "/v1/stats.models[ingest-stub].failed:number",
      "/v1/stats.models[ingest-stub].inflight:number",
      "/v1/stats.models[ingest-stub].ingest.applies_total:number",
      "/v1/stats.models[ingest-stub].ingest.dataset_size:number",
      "/v1/stats.models[ingest-stub].ingest.ingested_total:number",
      "/v1/stats.models[ingest-stub].ingest.min_watermark:number",
      "/v1/stats.models[ingest-stub].ingest.rejected_total:number",
      "/v1/stats.models[ingest-stub].ingest.snapshot_age_seconds:number",
      "/v1/stats.models[ingest-stub].ingest.snapshot_bytes:number",
      "/v1/stats.models[ingest-stub].ingest.snapshot_dataset_size:number",
      "/v1/stats.models[ingest-stub].ingest.snapshots_written:number",
      "/v1/stats.models[ingest-stub].ingest.watermarks:array",
      "/v1/stats.models[ingest-stub].ingest.watermarks[].layer:number",
      "/v1/stats.models[ingest-stub].ingest.watermarks[].watermark:number",
      "/v1/stats.models[ingest-stub].ingest.watermarks[]:object",
      "/v1/stats.models[ingest-stub].ingest:object",
      "/v1/stats.models[ingest-stub].model:string",
      "/v1/stats.models[ingest-stub].num_workers:number",
      "/v1/stats.models[ingest-stub].p50_latency_seconds:number",
      "/v1/stats.models[ingest-stub].p90_latency_seconds:number",
      "/v1/stats.models[ingest-stub].p99_latency_seconds:number",
      "/v1/stats.models[ingest-stub].parked:number",
      "/v1/stats.models[ingest-stub].parked_total:number",
      "/v1/stats.models[ingest-stub].per_class:array",
      "/v1/stats.models[ingest-stub].per_class[].batch_fill:number",
      "/v1/stats.models[ingest-stub].per_class[].cancelled:number",
      "/v1/stats.models[ingest-stub].per_class[].class:string",
      "/v1/stats.models[ingest-stub].per_class[].completed:number",
      "/v1/stats.models[ingest-stub].per_class[].deadline_exceeded:number",
      "/v1/stats.models[ingest-stub].per_class[].failed:number",
      "/v1/stats.models[ingest-stub].per_class[].p50_latency_seconds:number",
      "/v1/stats.models[ingest-stub].per_class[].p90_latency_seconds:number",
      "/v1/stats.models[ingest-stub].per_class[].p99_latency_seconds:number",
      "/v1/stats.models[ingest-stub].per_class[].rejected_past_deadline:number",
      "/v1/stats.models[ingest-stub].per_class[].submitted:number",
      "/v1/stats.models[ingest-stub].per_class[]:object",
      "/v1/stats.models[ingest-stub].preemptions:number",
      "/v1/stats.models[ingest-stub].queue_depth:number",
      "/v1/stats.models[ingest-stub].rejected_past_deadline:number",
      "/v1/stats.models[ingest-stub].rejected_queue_full:number",
      "/v1/stats.models[ingest-stub].rejected_session_limit:number",
      "/v1/stats.models[ingest-stub].resumed_total:number",
      "/v1/stats.models[ingest-stub].states.parked:number",
      "/v1/stats.models[ingest-stub].states.queued:number",
      "/v1/stats.models[ingest-stub].states.running:number",
      "/v1/stats.models[ingest-stub].states:object",
      "/v1/stats.models[ingest-stub].submitted:number",
      "/v1/stats.models[ingest-stub].uptime_seconds:number",
      "/v1/stats.models[ingest-stub].worker_busy_seconds:number",
      "/v1/stats.models[ingest-stub].worker_utilization:number",
      "/v1/stats.models[ingest-stub]:object",
      "/v1/stats.models[iqa-batch].active_sessions:number",
      "/v1/stats.models[iqa-batch].batch_size:number",
      "/v1/stats.models[iqa-batch].batching_enabled:bool",
      "/v1/stats.models[iqa-batch].cancelled:number",
      "/v1/stats.models[iqa-batch].completed:number",
      "/v1/stats.models[iqa-batch].deadline_exceeded:number",
      "/v1/stats.models[iqa-batch].failed:number",
      "/v1/stats.models[iqa-batch].inflight:number",
      "/v1/stats.models[iqa-batch].model:string",
      "/v1/stats.models[iqa-batch].num_workers:number",
      "/v1/stats.models[iqa-batch].p50_latency_seconds:number",
      "/v1/stats.models[iqa-batch].p90_latency_seconds:number",
      "/v1/stats.models[iqa-batch].p99_latency_seconds:number",
      "/v1/stats.models[iqa-batch].parked:number",
      "/v1/stats.models[iqa-batch].parked_total:number",
      "/v1/stats.models[iqa-batch].per_class:array",
      "/v1/stats.models[iqa-batch].per_class[].batch_fill:number",
      "/v1/stats.models[iqa-batch].per_class[].cancelled:number",
      "/v1/stats.models[iqa-batch].per_class[].class:string",
      "/v1/stats.models[iqa-batch].per_class[].completed:number",
      "/v1/stats.models[iqa-batch].per_class[].deadline_exceeded:number",
      "/v1/stats.models[iqa-batch].per_class[].failed:number",
      "/v1/stats.models[iqa-batch].per_class[].p50_latency_seconds:number",
      "/v1/stats.models[iqa-batch].per_class[].p90_latency_seconds:number",
      "/v1/stats.models[iqa-batch].per_class[].p99_latency_seconds:number",
      "/v1/stats.models[iqa-batch].per_class[].rejected_past_deadline:number",
      "/v1/stats.models[iqa-batch].per_class[].submitted:number",
      "/v1/stats.models[iqa-batch].per_class[]:object",
      "/v1/stats.models[iqa-batch].preemptions:number",
      "/v1/stats.models[iqa-batch].queue_depth:number",
      "/v1/stats.models[iqa-batch].rejected_past_deadline:number",
      "/v1/stats.models[iqa-batch].rejected_queue_full:number",
      "/v1/stats.models[iqa-batch].rejected_session_limit:number",
      "/v1/stats.models[iqa-batch].resumed_total:number",
      "/v1/stats.models[iqa-batch].states.parked:number",
      "/v1/stats.models[iqa-batch].states.queued:number",
      "/v1/stats.models[iqa-batch].states.running:number",
      "/v1/stats.models[iqa-batch].states:object",
      "/v1/stats.models[iqa-batch].submitted:number",
      "/v1/stats.models[iqa-batch].uptime_seconds:number",
      "/v1/stats.models[iqa-batch].worker_busy_seconds:number",
      "/v1/stats.models[iqa-batch].worker_utilization:number",
      "/v1/stats.models[iqa-batch]:object",
      "/v1/stats.server.build.build_type:string",
      "/v1/stats.server.build.compiler:string",
      "/v1/stats.server.build.cxx_flags:string",
      "/v1/stats.server.build.git:string",
      "/v1/stats.server.build:object",
      "/v1/stats.server.start_unix_seconds:number",
      "/v1/stats.server.uptime_seconds:number",
      "/v1/stats.server:object",
      "/v1/stats:object",
  };
  std::string diff;
  for (const std::string& line : recorded) {
    if (actual.count(line) == 0) diff += "  missing: " + line + "\n";
  }
  for (const std::string& line : actual) {
    if (recorded.count(line) == 0) diff += "  unexpected: " + line + "\n";
  }
  EXPECT_TRUE(diff.empty()) << diff;
}

/// The value of `series` in `values`; NaN when the scrape lacks it.
double SeriesValue(const std::map<std::string, double>& values,
                   const std::string& series) {
  auto it = values.find(series);
  return it == values.end() ? std::nan("") : it->second;
}

// Once the services are quiet, every counter both surfaces report reads
// the same in /v1/stats as in /v1/metrics.
TEST(QueryServerTest, StatsAndMetricsAgreeAfterQuiesce) {
  SurfaceFixture fix;
  ASSERT_NO_FATAL_FAILURE(fix.RunQueriesAndDrain());
  auto stats = fix.GetJson("/v1/stats");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto client = HttpClient::Connect("127.0.0.1", fix.server->port());
  ASSERT_TRUE(client.ok());
  auto metrics = client->Get("/v1/metrics");
  ASSERT_TRUE(metrics.ok());
  std::map<std::string, double> values;
  ScrapeFamilies(metrics->body, &values);

  const std::pair<const char*, const char*> per_model[] = {
      {"submitted", "deepeverest_queries_submitted_total"},
      {"completed", "deepeverest_queries_completed_total"},
      {"failed", "deepeverest_queries_failed_total"},
      {"cancelled", "deepeverest_queries_cancelled_total"},
      {"deadline_exceeded", "deepeverest_queries_deadline_exceeded_total"},
      {"rejected_past_deadline",
       "deepeverest_queries_rejected_past_deadline_total"},
      {"rejected_queue_full", "deepeverest_queries_rejected_queue_full_total"},
      {"rejected_session_limit",
       "deepeverest_queries_rejected_session_limit_total"},
      {"parked_total", "deepeverest_queries_parked_total"},
      {"resumed_total", "deepeverest_queries_resumed_total"},
      {"preemptions", "deepeverest_preemptions_total"},
      {"queue_depth", "deepeverest_queue_depth"},
      {"inflight", "deepeverest_queries_inflight"},
      {"parked", "deepeverest_queries_parked"},
      {"active_sessions", "deepeverest_active_sessions"},
  };
  const std::pair<const char*, const char*> ingest[] = {
      {"ingested_total", "deepeverest_ingested_inputs_total"},
      {"rejected_total", "deepeverest_ingest_rejected_total"},
      {"applies_total", "deepeverest_ingest_applies_total"},
      {"dataset_size", "deepeverest_ingest_dataset_size"},
      {"min_watermark", "deepeverest_ingest_watermark"},
      {"snapshots_written", "deepeverest_snapshots_written_total"},
      {"snapshot_bytes", "deepeverest_snapshot_bytes"},
      {"snapshot_age_seconds", "deepeverest_snapshot_age_seconds"},
  };
  int compared = 0;
  for (const char* model : {"iqa-batch", "ingest-stub"}) {
    const JsonValue* section = FindModelStats(*stats, model);
    ASSERT_NE(section, nullptr) << model;
    const std::string label = std::string("{model=\"") + model + "\"}";
    for (const auto& [key, series] : per_model) {
      ASSERT_NE(section->Find(key), nullptr) << key;
      EXPECT_EQ(section->Find(key)->number_value(),
                SeriesValue(values, series + label))
          << model << " " << key;
      ++compared;
    }
    // Every query here completes, so each class's latency histogram
    // counts exactly that class's completions.
    const JsonValue* per_class = section->Find("per_class");
    ASSERT_NE(per_class, nullptr);
    for (const JsonValue& cls : per_class->array_items()) {
      const std::string class_label = std::string("{model=\"") + model +
                                      "\",class=\"" +
                                      cls.Find("class")->string_value() + "\"}";
      EXPECT_EQ(cls.Find("completed")->number_value(),
                SeriesValue(values, "deepeverest_query_latency_seconds_count" +
                                        class_label))
          << model << " " << class_label;
      ++compared;
    }
    const JsonValue* ingest_section = section->Find("ingest");
    if (std::string(model) == "iqa-batch") {
      EXPECT_EQ(ingest_section, nullptr);
      continue;
    }
    ASSERT_NE(ingest_section, nullptr);
    for (const auto& [key, series] : ingest) {
      ASSERT_NE(ingest_section->Find(key), nullptr) << key;
      EXPECT_EQ(ingest_section->Find(key)->number_value(),
                SeriesValue(values, series + label))
          << model << " " << key;
      ++compared;
    }
  }
  EXPECT_EQ(stats->Find("server")->Find("start_unix_seconds")->number_value(),
            SeriesValue(values, "deepeverest_server_start_time_seconds"));
  EXPECT_EQ(compared, 2 * (15 + kNumQosClasses) + 8);
  // The counters moved: the comparison is not between zeros.
  EXPECT_EQ(FindModelStats(*stats, "iqa-batch")->Find("completed")->int_value(),
            8);
}

// Rendering is pull-based: a scrape reports exactly the models of the
// registry it reads, and keeps nothing from an earlier scrape.
TEST(QueryServerTest, ScrapeReportsOnlyTheModelsItReads) {
  ServerFixture fix({}, {}, /*second_model=*/true);
  const std::string kept = "deepeverest_queries_submitted_total{model=\"" +
                           fix.system->model_name() + "\"} 0";
  const std::string removed =
      "deepeverest_queries_submitted_total{model=\"twin\"} 0";
  ServingSources sources;
  sources.registry = &fix.registry;
  std::string text = RenderPrometheusText(sources);
  EXPECT_NE(text.find(kept), std::string::npos);
  EXPECT_NE(text.find(removed), std::string::npos);

  service::EngineRegistry kept_only;
  ASSERT_TRUE(
      kept_only.Register(fix.system->model_name(), fix.service.get()).ok());
  sources.registry = &kept_only;
  text = RenderPrometheusText(sources);
  EXPECT_NE(text.find(kept), std::string::npos);
  EXPECT_EQ(text.find("{model=\"twin\"}"), std::string::npos);
}

}  // namespace
}  // namespace net
}  // namespace deepeverest
