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
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/demo_system.h"
#include "common/json.h"
#include "common/logging.h"
#include "core/query_spec_json.h"
#include "net/http.h"
#include "net/http_client.h"
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

}  // namespace
}  // namespace net
}  // namespace deepeverest
