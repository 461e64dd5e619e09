#ifndef DEEPEVEREST_NET_QUERY_SERVER_H_
#define DEEPEVEREST_NET_QUERY_SERVER_H_

#include <cstdint>
#include <ctime>
#include <map>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/result.h"
#include "common/stopwatch.h"
#include "core/query_context.h"
#include "core/query_spec.h"
#include "net/http_server.h"
#include "net/serving_surface.h"
#include "service/engine_registry.h"
#include "service/query_service.h"

namespace deepeverest {
namespace net {

struct QueryServerOptions {
  HttpServerOptions http;
};

/// \brief The HTTP front-end over an EngineRegistry of QueryServices: one
/// server fronting several models, drivable by anything that speaks
/// HTTP/1.1. Requests decode to the one canonical core::QuerySpec (shared
/// wire codec in core/query_spec_json.h) and route by their `model` field
/// to the named model's service — or to the registry's default (first
/// registered) when the field is absent; an unknown model is 404.
///
/// Routes (see README "Network API" for the full request/response schema):
///  - `POST /v1/query` — body: JSON query spec (+ optional "model"
///    routing field, or a "ql" field carrying declarative QL text instead
///    of the structured query fields). Replies 200 with the top-k entries
///    + per-query stats, or a mapped error status.
///  - `GET /v1/query?...` — same query encoded as URL parameters
///    (`neurons` comma-separated). With `stream=1` (URL parameter on GET
///    or POST, or a `"stream": 1` POST-body member) the reply
///    is a chunked `application/x-ndjson` stream: one `progress` event per
///    NTA round (the confirmed-so-far entries), then a final `result` (or
///    `error`) event. A client that disconnects mid-stream cancels the
///    query — the service stops spending inference on an answer nobody
///    will read.
///  - `POST /v1/ql` (and `GET /v1/ql?ql=...`) — the declarative entry
///    point: the `ql` field/parameter holds `SELECT TOPK ...` text, the
///    envelope fields (`model`, `session_id`, `qos`, `deadline_ms`,
///    `weight`, `stream`) apply as on /v1/query. Full QoS/streaming
///    semantics — QL over the wire is not a side door.
///  - `DELETE /v1/query/<id>` — requests cooperative cancellation of a
///    live query by its query id (returned as `query_id` in the result
///    JSON and in the streaming `accepted` event; identical to the trace
///    id). Replies 200 `{"query_id":...,"cancel_requested":true}` when the
///    query was still live — queued queries fail at dispatch, running ones
///    abort between NTA rounds, parked ones fail at resume — or 404 once
///    it has finished (cancelling a finished query has no meaning).
///  - `POST /v1/ingest` — body `{"model": ..., "inputs": [{"values":
///    [...], "label": ...}, ...]}`: durably accepts new inputs for the
///    routed model while queries keep running; the reply carries the
///    assigned dense ids (`first_id`, `count`) and the dataset size after
///    the batch. 429 when the incremental-apply backlog is full (retry),
///    404 when the routed model serves queries only (no ingest pipeline
///    attached). Acknowledged inputs survive crashes and are indexed
///    exactly once.
///  - `GET /v1/snapshot` — the routed model's ingest/snapshot state
///    (`?model=...`, default like /v1/query): per-layer index watermarks,
///    backlog counters, and the last committed snapshot's size/age.
///  - `POST /v1/snapshot/save` — forces a full catch-up and a committed
///    snapshot; replies after the manifest rename is durable.
///  - `GET /v1/models` — the models served here (and which is default).
///  - `GET /v1/stats` — one ServiceStats section per model, plus server
///    uptime and build info.
///  - `GET /v1/metrics` — the Prometheus text exposition (format 0.0.4):
///    per-model query counters and latency histograms, IQA cache and batch
///    scheduler stats, HTTP front-end counters, and build info. Every
///    counter served here and in /v1/stats is declared once
///    (serving_surface.h), so the two surfaces read the same values.
///  - `GET /v1/trace/<id>` — a recently finished query's span tree, while
///    it is still in the service's trace ring. Every query is traced;
///    `trace=1` on /v1/query or /v1/ql (URL parameter or body member, like
///    `stream`) additionally inlines the span tree in the response — as a
///    `"trace"` member of the result JSON, or as a final
///    `{"event":"trace",...}` NDJSON event when streaming.
///  - `GET /healthz` — 200 with a small JSON body (status, uptime, build)
///    once the server accepts connections.
///
/// Status mapping: InvalidArgument→400, NotFound→404,
/// ResourceExhausted→429 (admission backpressure: retry),
/// FailedPrecondition→503 (shutting down), DeadlineExceeded→504 (expired
/// while queued — rejected without running — or mid-query),
/// Cancelled→499, anything else→500. Error bodies are
/// `{"error":{"code":...,"message":...}}`.
///
/// The server holds the registry (and through it the services/engines) by
/// pointer; all must outlive it. Responses are computed on the routed
/// QueryService's worker pool — the HTTP connection threads only parse,
/// submit, and block on the future, so concurrency limits and QoS remain
/// wholly each service's.
class QueryServer {
 public:
  static Result<std::unique_ptr<QueryServer>> Start(
      service::EngineRegistry* registry, const QueryServerOptions& options);

  /// The bound port (resolved when options.http.port was 0).
  uint16_t port() const { return http_->port(); }

  /// Stops the HTTP listener; in-flight requests finish first. The
  /// underlying services are not shut down (they are not owned).
  void Shutdown();

  /// The /v1/metrics exposition as a scrape would read it now.
  std::string RenderPrometheusText() const;
  /// This server, for callers that scrape through
  /// `metrics()->RenderPrometheusText()`.
  const QueryServer* metrics() const { return this; }

 private:
  explicit QueryServer(service::EngineRegistry* registry)
      : registry_(registry) {}

  /// Routes by the one route table in query_server.cc: 405 for a method
  /// the route does not serve, 404 for an unknown path.
  void Handle(const HttpRequest& request, HttpResponseWriter* writer);
  /// /v1/query and /v1/ql (which demands the ql field).
  void HandleQuery(const HttpRequest& request, HttpResponseWriter* writer);
  /// One query's whole lifetime: submit, live registration, wait, the
  /// `respond` and `serialize` spans, the reply and Trace::Finish. Plain
  /// and streamed replies differ only in how the bytes are framed.
  void RunQuery(service::QueryService* service, core::QuerySpec spec,
                bool stream, bool want_trace, HttpResponseWriter* writer);
  void HandleModels(const HttpRequest& request, HttpResponseWriter* writer);
  void HandleIngest(const HttpRequest& request, HttpResponseWriter* writer);
  /// GET /v1/snapshot and POST /v1/snapshot/save.
  void HandleSnapshot(const HttpRequest& request, HttpResponseWriter* writer);
  /// GET /healthz, /v1/stats and /v1/metrics, from one Sources().
  void HandleSurface(const HttpRequest& request, HttpResponseWriter* writer);
  void HandleTrace(const HttpRequest& request, HttpResponseWriter* writer);
  void HandleCancel(const HttpRequest& request, HttpResponseWriter* writer);

  /// What the served surfaces read (serving_surface.h), gathered now.
  ServingSources Sources() const;

  /// One live (admitted, unfinished) query's control handle, registered by
  /// RunQuery for the duration of the request that submitted it. Backs
  /// `DELETE /v1/query/<id>` and the per-model `states` section of
  /// /v1/stats. Weak: the service and client own the context's lifetime.
  struct LiveQuery {
    std::weak_ptr<core::QueryContext> ctx;
    service::QueryService* service = nullptr;
  };

  service::EngineRegistry* registry_;
  std::unique_ptr<HttpServer> http_;
  Stopwatch uptime_;
  const int64_t start_unix_seconds_ = static_cast<int64_t>(std::time(nullptr));

  mutable common::Mutex live_mu_;
  /// Live queries by query id (== trace id, process-wide unique). Entries
  /// are erased when their request finishes.
  std::map<uint64_t, LiveQuery> live_ GUARDED_BY(live_mu_);
};

}  // namespace net
}  // namespace deepeverest

#endif  // DEEPEVEREST_NET_QUERY_SERVER_H_
