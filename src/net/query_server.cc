#include "net/query_server.h"

#include <chrono>
#include <cstdlib>
#include <map>
#include <utility>
#include <vector>

#include "common/build_info.h"
#include "common/json.h"
#include "common/mutex.h"
#include "common/trace.h"
#include "core/query_spec_json.h"

namespace deepeverest {
namespace net {

namespace {

int HttpStatusForCode(StatusCode code) {
  switch (code) {
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kOutOfRange: return 400;  // bad layer/neuron indices
    case StatusCode::kNotFound: return 404;
    case StatusCode::kAlreadyExists: return 409;
    case StatusCode::kResourceExhausted: return 429;
    case StatusCode::kFailedPrecondition: return 503;
    case StatusCode::kDeadlineExceeded: return 504;
    case StatusCode::kCancelled: return 499;
    default: return 500;
  }
}

std::string ErrorJson(const Status& status) {
  JsonWriter w;
  w.BeginObject();
  w.Key("error");
  w.BeginObject();
  w.Key("code");
  w.String(StatusCodeToString(status.code()));
  w.Key("message");
  w.String(status.message());
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

void WriteError(HttpResponseWriter* writer, const Status& status) {
  writer->WriteResponse(HttpStatusForCode(status.code()), "application/json",
                        ErrorJson(status) + "\n");
}

void WriteEntries(const std::vector<core::ResultEntry>& entries,
                  JsonWriter* w) {
  w->BeginArray();
  for (const core::ResultEntry& e : entries) {
    w->BeginObject();
    w->Key("input_id");
    w->Uint(e.input_id);
    w->Key("value");
    w->Double(e.value);
    w->EndObject();
  }
  w->EndArray();
}

void WriteQueryStats(const core::QueryStats& stats, JsonWriter* w) {
  w->BeginObject();
  w->Key("inputs_run");
  w->Int(stats.inputs_run);
  w->Key("batches_run");
  w->Double(stats.batches_run);
  w->Key("rounds");
  w->Int(stats.rounds);
  w->Key("iqa_hits");
  w->Int(stats.iqa_hits);
  w->Key("wall_seconds");
  w->Double(stats.wall_seconds);
  w->Key("simulated_gpu_seconds");
  w->Double(stats.simulated_gpu_seconds);
  w->Key("queue_seconds");
  w->Double(stats.queue_seconds);
  w->Key("terminated_early");
  w->Bool(stats.terminated_early);
  w->Key("dataset_version");
  w->Int(stats.dataset_version);
  w->EndObject();
}

/// Writes one ingest pipeline snapshot as the members of an already-open
/// object (shared by /v1/snapshot and the per-model sections of /v1/stats).
void WriteIngestStatsFields(const service::IngestStats& stats, JsonWriter* w) {
  w->Key("dataset_size");
  w->Uint(stats.dataset_size);
  w->Key("ingested_total");
  w->Int(stats.ingested_total);
  w->Key("rejected_total");
  w->Int(stats.rejected_total);
  w->Key("applies_total");
  w->Int(stats.applies_total);
  w->Key("min_watermark");
  w->Uint(stats.min_watermark);
  w->Key("watermarks");
  w->BeginArray();
  for (const service::IngestLayerWatermark& layer : stats.layers) {
    w->BeginObject();
    w->Key("layer");
    w->Int(layer.layer);
    w->Key("watermark");
    w->Uint(layer.watermark);
    w->EndObject();
  }
  w->EndArray();
  w->Key("snapshots_written");
  w->Int(stats.snapshots_written);
  w->Key("snapshot_bytes");
  w->Int(stats.snapshot_bytes);
  w->Key("snapshot_age_seconds");
  w->Double(stats.snapshot_age_seconds);
  w->Key("snapshot_dataset_size");
  w->Uint(stats.snapshot_dataset_size);
}

/// One NDJSON progress event: the round, the current threshold/bounds, and
/// the entries already proven final.
std::string ProgressEventJson(const core::NtaProgress& progress) {
  JsonWriter w;
  w.BeginObject();
  w.Key("event");
  w.String("progress");
  w.Key("round");
  w.Int(progress.round);
  w.Key("threshold");
  w.Double(progress.threshold);
  w.Key("kth_value");
  w.Double(progress.kth_value);
  w.Key("theta_guarantee");
  w.Double(progress.theta_guarantee);
  w.Key("confirmed");
  WriteEntries(progress.confirmed, &w);
  w.EndObject();
  return w.TakeString();
}

/// Writes one ServiceStats snapshot as the JSON object members of an
/// already-open object (shared by the per-model sections of /v1/stats).
void WriteServiceStatsFields(const service::ServiceStats& stats,
                             JsonWriter* w) {
  w->Key("submitted");
  w->Int(stats.submitted);
  w->Key("rejected_queue_full");
  w->Int(stats.rejected_queue_full);
  w->Key("rejected_session_limit");
  w->Int(stats.rejected_session_limit);
  w->Key("completed");
  w->Int(stats.completed);
  w->Key("failed");
  w->Int(stats.failed);
  w->Key("cancelled");
  w->Int(stats.cancelled);
  w->Key("deadline_exceeded");
  w->Int(stats.deadline_exceeded);
  w->Key("rejected_past_deadline");
  w->Int(stats.rejected_past_deadline);
  w->Key("queue_depth");
  w->Uint(stats.queue_depth);
  w->Key("inflight");
  w->Uint(stats.inflight);
  w->Key("parked");
  w->Uint(stats.parked);
  w->Key("parked_total");
  w->Int(stats.parked_total);
  w->Key("resumed_total");
  w->Int(stats.resumed_total);
  w->Key("preemptions");
  w->Int(stats.preemptions);
  w->Key("active_sessions");
  w->Uint(stats.active_sessions);
  w->Key("p50_latency_seconds");
  w->Double(stats.p50_latency_seconds);
  w->Key("p90_latency_seconds");
  w->Double(stats.p90_latency_seconds);
  w->Key("p99_latency_seconds");
  w->Double(stats.p99_latency_seconds);
  w->Key("num_workers");
  w->Int(stats.num_workers);
  w->Key("uptime_seconds");
  w->Double(stats.uptime_seconds);
  w->Key("worker_busy_seconds");
  w->Double(stats.worker_busy_seconds);
  w->Key("worker_utilization");
  w->Double(stats.worker_utilization);
  w->Key("batching_enabled");
  w->Bool(stats.batching_enabled);
  w->Key("batch_size");
  w->Int(stats.batch_size);
  w->Key("per_class");
  w->BeginArray();
  for (int c = 0; c < kNumQosClasses; ++c) {
    const service::QosClassStats& cls =
        stats.per_class[static_cast<size_t>(c)];
    w->BeginObject();
    w->Key("class");
    w->String(QosClassName(static_cast<QosClass>(c)));
    w->Key("submitted");
    w->Int(cls.submitted);
    w->Key("completed");
    w->Int(cls.completed);
    w->Key("failed");
    w->Int(cls.failed);
    w->Key("cancelled");
    w->Int(cls.cancelled);
    w->Key("deadline_exceeded");
    w->Int(cls.deadline_exceeded);
    w->Key("rejected_past_deadline");
    w->Int(cls.rejected_past_deadline);
    w->Key("p50_latency_seconds");
    w->Double(cls.p50_latency_seconds);
    w->Key("p90_latency_seconds");
    w->Double(cls.p90_latency_seconds);
    w->Key("p99_latency_seconds");
    w->Double(cls.p99_latency_seconds);
    w->Key("batch_fill");
    w->Double(cls.batch_fill);
    w->EndObject();
  }
  w->EndArray();
}

/// Writes the compiled-in build description as an object member sequence
/// of an already-open object (shared by /healthz and /v1/stats).
void WriteBuildInfoFields(JsonWriter* w) {
  const BuildInfo& build = GetBuildInfo();
  w->Key("build");
  w->BeginObject();
  w->Key("compiler");
  w->String(build.compiler);
  w->Key("cxx_flags");
  w->String(build.cxx_flags);
  w->Key("build_type");
  w->String(build.build_type);
  w->Key("git");
  w->String(build.git_describe);
  w->EndObject();
}

/// Writes one trace snapshot as a JSON object: flat span list with parent
/// indices (the tree is reconstructible), typed attrs inlined per span.
void WriteTraceJson(const Trace::Data& data, JsonWriter* w) {
  w->BeginObject();
  w->Key("trace_id");
  w->Uint(data.id);
  w->Key("dropped_spans");
  w->Int(data.dropped_spans);
  w->Key("complete");
  w->Bool(!data.has_open_spans);
  w->Key("spans");
  w->BeginArray();
  for (const TraceSpan& span : data.spans) {
    w->BeginObject();
    w->Key("name");
    w->String(span.name);
    w->Key("parent");
    w->Int(span.parent);
    w->Key("start_nanos");
    w->Int(span.start_nanos);
    w->Key("duration_nanos");
    w->Int(span.duration_nanos);
    if (!span.attrs.empty()) {
      w->Key("attrs");
      w->BeginObject();
      for (const TraceAttr& attr : span.attrs) {
        w->Key(attr.key);
        if (attr.is_int) {
          w->Int(attr.int_value);
        } else {
          w->Double(attr.double_value);
        }
      }
      w->EndObject();
    }
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

/// Collects the HTTP front-end's own counters into the scrape. No model
/// label: the listener serves every model.
void CollectHttpMetrics(const HttpServer* http,
                        service::MetricsEmitter* emitter) {
  const HttpServerStats stats = http->stats();
  emitter->Counter("deepeverest_http_connections_accepted_total",
                   "TCP connections accepted by the HTTP front-end.", {},
                   static_cast<double>(stats.connections_accepted));
  emitter->Counter("deepeverest_http_requests_total",
                   "HTTP responses written, including parse-error replies.",
                   {}, static_cast<double>(stats.requests_handled));
  emitter->Counter("deepeverest_http_responses_total",
                   "HTTP responses by status family.", {{"code", "2xx"}},
                   static_cast<double>(stats.responses_2xx));
  emitter->Counter("deepeverest_http_responses_total",
                   "HTTP responses by status family.", {{"code", "4xx"}},
                   static_cast<double>(stats.responses_4xx));
  emitter->Counter("deepeverest_http_responses_total",
                   "HTTP responses by status family.", {{"code", "5xx"}},
                   static_cast<double>(stats.responses_5xx));
}

}  // namespace

Result<std::unique_ptr<QueryServer>> QueryServer::Start(
    service::EngineRegistry* registry, const QueryServerOptions& options) {
  if (registry == nullptr) {
    return Status::InvalidArgument("engine registry is required");
  }
  if (registry->empty()) {
    return Status::InvalidArgument(
        "engine registry must have at least one model");
  }
  std::unique_ptr<QueryServer> server(new QueryServer(registry));
  auto started = HttpServer::Start(
      options.http, [raw = server.get()](const HttpRequest& request,
                                         HttpResponseWriter* writer) {
        raw->Handle(request, writer);
      });
  if (!started.ok()) return started.status();
  server->http_ = std::move(started.value());
  server->start_unix_seconds_ = std::chrono::duration_cast<std::chrono::seconds>(
                                    std::chrono::system_clock::now()
                                        .time_since_epoch())
                                    .count();
  server->collector_handles_.push_back(
      service::RegisterServiceMetrics(&server->metrics_, registry));
  server->collector_handles_.push_back(server->metrics_.AddCollector(
      [http = server->http_.get()](service::MetricsEmitter* emitter) {
        CollectHttpMetrics(http, emitter);
      }));
  server->collector_handles_.push_back(server->metrics_.AddCollector(
      [registry](service::MetricsEmitter* emitter) {
        // Ingest pipeline metrics, one label set per model with a sink.
        for (const std::string& name : registry->ModelNames()) {
          service::IngestSink* sink = registry->FindIngest(name);
          if (sink == nullptr) continue;
          const service::IngestStats stats = sink->Stats();
          const service::MetricsEmitter::Labels labels = {{"model", name}};
          emitter->Counter("deepeverest_ingested_inputs_total",
                           "Inputs durably accepted by POST /v1/ingest.",
                           labels, static_cast<double>(stats.ingested_total));
          emitter->Counter(
              "deepeverest_ingest_rejected_total",
              "Ingest batches rejected because the apply backlog was full.",
              labels, static_cast<double>(stats.rejected_total));
          emitter->Counter(
              "deepeverest_ingest_applies_total",
              "Incremental index apply passes completed.", labels,
              static_cast<double>(stats.applies_total));
          emitter->Gauge("deepeverest_ingest_dataset_size",
                         "Inputs visible to queries (dataset size).", labels,
                         static_cast<double>(stats.dataset_size));
          emitter->Gauge(
              "deepeverest_ingest_watermark",
              "Minimum index high-watermark across built layers; equals "
              "the dataset size when the index tier is caught up.",
              labels, static_cast<double>(stats.min_watermark));
          emitter->Counter("deepeverest_snapshots_written_total",
                           "Snapshots committed since process start.", labels,
                           static_cast<double>(stats.snapshots_written));
          emitter->Gauge("deepeverest_snapshot_bytes",
                         "On-disk size of the last committed snapshot.",
                         labels, static_cast<double>(stats.snapshot_bytes));
          emitter->Gauge(
              "deepeverest_snapshot_age_seconds",
              "Seconds since the last committed snapshot (-1 = none).",
              labels, stats.snapshot_age_seconds);
        }
      }));
  server->collector_handles_.push_back(server->metrics_.AddCollector(
      [raw = server.get()](service::MetricsEmitter* emitter) {
        const BuildInfo& build = GetBuildInfo();
        emitter->Gauge("deepeverest_build_info",
                       "Build metadata; the value is always 1.",
                       {{"compiler", build.compiler},
                        {"build_type", build.build_type},
                        {"git", build.git_describe}},
                       1.0);
        emitter->Gauge("deepeverest_server_uptime_seconds",
                       "Seconds since this HTTP server started.", {},
                       raw->uptime_.ElapsedSeconds());
        emitter->Gauge("deepeverest_server_start_time_seconds",
                       "Unix time the HTTP server started.", {},
                       static_cast<double>(raw->start_unix_seconds_));
      }));
  return server;
}

void QueryServer::Shutdown() {
  // Stop traffic first, then drop the collectors (they capture this server
  // and the registry; nothing scrapes after the listener is down).
  http_->Shutdown();
  for (const int64_t handle : collector_handles_) {
    metrics_.RemoveCollector(handle);
  }
  collector_handles_.clear();
}

void QueryServer::Handle(const HttpRequest& request,
                         HttpResponseWriter* writer) {
  if (request.path == "/healthz") {
    if (request.method != "GET") {
      writer->WriteResponse(405, "text/plain", "method not allowed\n");
      return;
    }
    HandleHealthz(writer);
    return;
  }
  if (request.path == "/v1/metrics") {
    if (request.method != "GET") {
      writer->WriteResponse(405, "text/plain", "method not allowed\n");
      return;
    }
    HandleMetrics(writer);
    return;
  }
  if (request.path.rfind("/v1/query/", 0) == 0) {
    if (request.method != "DELETE") {
      writer->WriteResponse(405, "text/plain", "method not allowed\n");
      return;
    }
    HandleCancel(request.path, writer);
    return;
  }
  if (request.path.rfind("/v1/trace/", 0) == 0) {
    if (request.method != "GET") {
      writer->WriteResponse(405, "text/plain", "method not allowed\n");
      return;
    }
    HandleTrace(request.path, writer);
    return;
  }
  if (request.path == "/v1/models") {
    if (request.method != "GET") {
      writer->WriteResponse(405, "text/plain", "method not allowed\n");
      return;
    }
    HandleModels(writer);
    return;
  }
  if (request.path == "/v1/ingest") {
    if (request.method != "POST") {
      writer->WriteResponse(405, "text/plain", "method not allowed\n");
      return;
    }
    HandleIngest(request, writer);
    return;
  }
  if (request.path == "/v1/snapshot") {
    if (request.method != "GET") {
      writer->WriteResponse(405, "text/plain", "method not allowed\n");
      return;
    }
    HandleSnapshot(request, writer, /*save=*/false);
    return;
  }
  if (request.path == "/v1/snapshot/save") {
    if (request.method != "POST") {
      writer->WriteResponse(405, "text/plain", "method not allowed\n");
      return;
    }
    HandleSnapshot(request, writer, /*save=*/true);
    return;
  }
  if (request.path == "/v1/stats") {
    if (request.method != "GET") {
      writer->WriteResponse(405, "text/plain", "method not allowed\n");
      return;
    }
    HandleStats(writer);
    return;
  }
  if (request.path == "/v1/query" || request.path == "/v1/ql") {
    if (request.method != "GET" && request.method != "POST") {
      writer->WriteResponse(405, "text/plain", "method not allowed\n");
      return;
    }
    HandleQuery(request, writer, /*require_ql=*/request.path == "/v1/ql");
    return;
  }
  writer->WriteResponse(404, "application/json",
                        ErrorJson(Status::NotFound("no route for " +
                                                   request.path)) +
                            "\n");
}

void QueryServer::HandleQuery(const HttpRequest& request,
                              HttpResponseWriter* writer, bool require_ql) {
  // Both encodings (POST JSON body, GET URL parameters) expose one field
  // source; the shared wire codec does the rest.
  JsonValue body;
  std::map<std::string, JsonValue> params;
  core::JsonFieldFinder find;
  if (request.method == "POST") {
    auto parsed = ParseJson(request.body);
    if (!parsed.ok()) {
      WriteError(writer, parsed.status());
      return;
    }
    if (!parsed->is_object()) {
      WriteError(writer, Status::InvalidArgument(
                             "request body must be a JSON object"));
      return;
    }
    body = std::move(parsed.value());
    find = [&body](const std::string& name) { return body.Find(name); };
  } else {
    // GET: every parameter is a string; the codec's readers convert.
    for (const auto& [key, value] : request.query) {
      params.emplace(key, JsonValue::MakeString(value));
    }
    find = [&params](const std::string& name) -> const JsonValue* {
      auto it = params.find(name);
      return it == params.end() ? nullptr : &it->second;
    };
  }

  // Routing: the model field picks the service; absent routes to the
  // registry default. This is routing, not matching — the same server
  // answers for every registered model.
  service::QueryService* service = registry_->DefaultService();
  if (const JsonValue* model = find("model")) {
    if (!model->is_string()) {
      WriteError(writer, Status::InvalidArgument("'model' must be a string"));
      return;
    }
    service = registry_->Find(model->string_value());
    if (service == nullptr) {
      std::string served;
      for (const std::string& name : registry_->ModelNames()) {
        if (!served.empty()) served += ", ";
        served += name;
      }
      WriteError(writer,
                 Status::NotFound("model '" + model->string_value() +
                                  "' is not served here (serving: " + served +
                                  ")"));
      return;
    }
  }

  if (require_ql && find("ql") == nullptr) {
    WriteError(writer,
               Status::InvalidArgument("'ql' is required on /v1/ql"));
    return;
  }

  auto spec = core::QuerySpecFromFields(find);
  if (!spec.ok()) {
    WriteError(writer, spec.status());
    return;
  }

  // Streaming is requested either way the other transport fields travel:
  // as the `stream=1` URL parameter or as a `stream` member of a POST
  // body (true, 1, or "1") — a body flag must not be silently ignored
  // while its sibling `model` routes.
  bool streaming = false;
  const auto stream_param = request.query.find("stream");
  if (stream_param != request.query.end() && stream_param->second == "1") {
    streaming = true;
  }
  if (const JsonValue* stream = find("stream")) {
    streaming = streaming || (stream->is_bool() && stream->bool_value()) ||
                (stream->is_number() && stream->number_value() == 1.0) ||
                (stream->is_string() && stream->string_value() == "1");
  }
  // `trace=1` travels the same two ways `stream` does. The query is traced
  // regardless; the flag only controls whether the span tree rides along in
  // the response (it is always retrievable at /v1/trace/<id> afterwards).
  bool want_trace = false;
  const auto trace_param = request.query.find("trace");
  if (trace_param != request.query.end() && trace_param->second == "1") {
    want_trace = true;
  }
  if (const JsonValue* trace = find("trace")) {
    want_trace = want_trace || (trace->is_bool() && trace->bool_value()) ||
                 (trace->is_number() && trace->number_value() == 1.0) ||
                 (trace->is_string() && trace->string_value() == "1");
  }
  if (streaming) {
    HandleStreamingQuery(service, std::move(spec.value()), writer, want_trace);
    return;
  }

  auto submitted = service->SubmitWithControl(std::move(spec.value()));
  if (!submitted.ok()) {
    WriteError(writer, submitted.status());
    return;
  }
  const uint64_t query_id = submitted->context->trace != nullptr
                                ? submitted->context->trace->id()
                                : 0;
  RegisterLive(query_id, submitted->context, service);
  Result<core::TopKResult> result = submitted->result.get();
  UnregisterLive(query_id);
  Trace* const trace = submitted->context->trace.get();
  if (trace != nullptr) trace->EndSpan(submitted->context->respond_span);
  if (!result.ok()) {
    if (trace != nullptr) trace->Finish();
    WriteError(writer, result.status());
    return;
  }
  // Serialization runs inside its own span so the trace accounts for the
  // response-building tail, then the trace is finished (closing the root)
  // before its snapshot is appended — the span tree in the reply is final.
  JsonWriter w;
  w.BeginObject();
  w.Key("query_id");
  w.Uint(query_id);
  {
    SpanScope serialize(trace, "serialize");
    w.Key("entries");
    WriteEntries(result.value().entries, &w);
    w.Key("stats");
    WriteQueryStats(result.value().stats, &w);
  }
  if (trace != nullptr) trace->Finish();
  if (want_trace && trace != nullptr) {
    w.Key("trace");
    WriteTraceJson(trace->Snapshot(), &w);
  }
  w.EndObject();
  writer->WriteResponse(200, "application/json", w.TakeString() + "\n");
}

void QueryServer::HandleStreamingQuery(service::QueryService* service,
                                       core::QuerySpec spec,
                                       HttpResponseWriter* writer,
                                       bool want_trace) {
  /// Shared between this connection thread and the worker thread running
  /// the query: the sink below is invoked on the worker, while the context
  /// handle arrives from SubmitWithControl on this thread.
  struct StreamState {
    common::Mutex mu;
    std::shared_ptr<core::QueryContext> ctx GUARDED_BY(mu);
    bool disconnected GUARDED_BY(mu) = false;
  };
  auto state = std::make_shared<StreamState>();

  spec.on_progress = [writer, state](const core::NtaProgress& progress) {
    if (!writer->WriteChunk(ProgressEventJson(progress) + "\n")) {
      // The client is gone: nobody will read the answer, so stop paying
      // inference for it. Cancel (rather than early-stop) so the abort is
      // visible as Cancelled in ServiceStats. Returning true keeps NTA in
      // its loop until the between-rounds CheckRunnable sees the flag.
      common::MutexLock lock(&state->mu);
      state->disconnected = true;
      if (state->ctx != nullptr) state->ctx->Cancel();
    }
    return true;
  };

  if (!writer->BeginChunked(200, "application/x-ndjson")) return;

  auto submitted = service->SubmitWithControl(std::move(spec));
  if (!submitted.ok()) {
    JsonWriter w;
    w.BeginObject();
    w.Key("event");
    w.String("error");
    w.Key("code");
    w.String(StatusCodeToString(submitted.status().code()));
    w.Key("message");
    w.String(submitted.status().message());
    w.EndObject();
    writer->WriteChunk(w.TakeString() + "\n");
    writer->EndChunked();
    return;
  }
  {
    common::MutexLock lock(&state->mu);
    state->ctx = submitted->context;
    // The disconnect may have been observed before the handle existed.
    if (state->disconnected) state->ctx->Cancel();
  }
  const uint64_t query_id = submitted->context->trace != nullptr
                                ? submitted->context->trace->id()
                                : 0;
  RegisterLive(query_id, submitted->context, service);
  // First event: the query's id, so the client can DELETE /v1/query/<id>
  // (or fetch /v1/trace/<id>) while the stream is still running.
  {
    JsonWriter aw;
    aw.BeginObject();
    aw.Key("event");
    aw.String("accepted");
    aw.Key("query_id");
    aw.Uint(query_id);
    aw.EndObject();
    writer->WriteChunk(aw.TakeString() + "\n");
  }

  Result<core::TopKResult> result = submitted->result.get();
  UnregisterLive(query_id);
  Trace* const trace = submitted->context->trace.get();
  if (trace != nullptr) trace->EndSpan(submitted->context->respond_span);
  JsonWriter w;
  w.BeginObject();
  w.Key("event");
  {
    SpanScope serialize(trace, "serialize");
    if (result.ok()) {
      w.String("result");
      w.Key("entries");
      WriteEntries(result.value().entries, &w);
      w.Key("stats");
      WriteQueryStats(result.value().stats, &w);
    } else {
      w.String("error");
      w.Key("code");
      w.String(StatusCodeToString(result.status().code()));
      w.Key("message");
      w.String(result.status().message());
    }
  }
  w.EndObject();
  if (trace != nullptr) trace->Finish();
  writer->WriteChunk(w.TakeString() + "\n");
  if (want_trace && trace != nullptr) {
    JsonWriter tw;
    tw.BeginObject();
    tw.Key("event");
    tw.String("trace");
    tw.Key("trace");
    WriteTraceJson(trace->Snapshot(), &tw);
    tw.EndObject();
    writer->WriteChunk(tw.TakeString() + "\n");
  }
  writer->EndChunked();
  // The context owns the sink, the sink captures `state`, and `state`
  // holds the context back — break the cycle now that the query is over
  // (the worker finished with the sink before resolving the future).
  submitted->context->on_progress = nullptr;
}

void QueryServer::HandleHealthz(HttpResponseWriter* writer) {
  JsonWriter w;
  w.BeginObject();
  w.Key("status");
  w.String("ok");
  w.Key("uptime_seconds");
  w.Double(uptime_.ElapsedSeconds());
  w.Key("start_unix_seconds");
  w.Int(start_unix_seconds_);
  WriteBuildInfoFields(&w);
  w.EndObject();
  writer->WriteResponse(200, "application/json", w.TakeString() + "\n");
}

void QueryServer::HandleMetrics(HttpResponseWriter* writer) {
  writer->WriteResponse(200, "text/plain; version=0.0.4; charset=utf-8",
                        metrics_.RenderPrometheusText());
}

void QueryServer::HandleTrace(const std::string& path,
                              HttpResponseWriter* writer) {
  const std::string id_text = path.substr(std::string("/v1/trace/").size());
  char* end = nullptr;
  const unsigned long long id = std::strtoull(id_text.c_str(), &end, 10);
  if (id_text.empty() || end == nullptr || *end != '\0') {
    WriteError(writer,
               Status::InvalidArgument("trace id must be a decimal integer"));
    return;
  }
  // Traces live in the per-model services' rings; the id is process-wide
  // unique, so the first hit is the only one.
  std::shared_ptr<Trace> trace;
  for (const std::string& name : registry_->ModelNames()) {
    service::QueryService* service = registry_->Find(name);
    if (service == nullptr) continue;
    trace = service->FindTrace(static_cast<uint64_t>(id));
    if (trace != nullptr) break;
  }
  if (trace == nullptr) {
    WriteError(writer, Status::NotFound("trace " + id_text +
                                        " is not in the ring (it may have "
                                        "been evicted by newer queries)"));
    return;
  }
  JsonWriter w;
  WriteTraceJson(trace->Snapshot(), &w);
  writer->WriteResponse(200, "application/json", w.TakeString() + "\n");
}

void QueryServer::RegisterLive(uint64_t query_id,
                               const std::shared_ptr<core::QueryContext>& ctx,
                               service::QueryService* service) {
  common::MutexLock lock(&live_mu_);
  live_[query_id] = LiveQuery{ctx, service};
}

void QueryServer::UnregisterLive(uint64_t query_id) {
  common::MutexLock lock(&live_mu_);
  live_.erase(query_id);
}

void QueryServer::HandleCancel(const std::string& path,
                               HttpResponseWriter* writer) {
  const std::string id_text = path.substr(std::string("/v1/query/").size());
  char* end = nullptr;
  const unsigned long long id = std::strtoull(id_text.c_str(), &end, 10);
  if (id_text.empty() || end == nullptr || *end != '\0') {
    WriteError(writer,
               Status::InvalidArgument("query id must be a decimal integer"));
    return;
  }
  std::shared_ptr<core::QueryContext> ctx;
  {
    common::MutexLock lock(&live_mu_);
    auto it = live_.find(static_cast<uint64_t>(id));
    if (it != live_.end()) ctx = it->second.ctx.lock();
  }
  if (ctx == nullptr ||
      ctx->lifecycle() == core::QueryContext::Lifecycle::kFinished) {
    WriteError(writer,
               Status::NotFound("query " + id_text +
                                " is not live (it may have already "
                                "finished)"));
    return;
  }
  // Cooperative: a queued query fails at dispatch, a running one aborts
  // between NTA rounds, a parked one fails at resume — all surface as
  // Cancelled to the submitting request.
  ctx->Cancel();
  JsonWriter w;
  w.BeginObject();
  w.Key("query_id");
  w.Uint(static_cast<uint64_t>(id));
  w.Key("cancel_requested");
  w.Bool(true);
  w.EndObject();
  writer->WriteResponse(200, "application/json", w.TakeString() + "\n");
}

void QueryServer::HandleIngest(const HttpRequest& request,
                               HttpResponseWriter* writer) {
  auto parsed = ParseJson(request.body);
  if (!parsed.ok()) {
    WriteError(writer, parsed.status());
    return;
  }
  if (!parsed->is_object()) {
    WriteError(writer,
               Status::InvalidArgument("request body must be a JSON object"));
    return;
  }
  // Routing mirrors /v1/query: `model` picks the pipeline, absent routes to
  // the default model. A served model without an attached ingest pipeline is
  // a 404 — it answers queries only.
  std::string model = registry_->default_model();
  if (const JsonValue* field = parsed->Find("model")) {
    if (!field->is_string()) {
      WriteError(writer, Status::InvalidArgument("'model' must be a string"));
      return;
    }
    model = field->string_value();
  }
  service::IngestSink* sink = registry_->FindIngest(model);
  if (sink == nullptr) {
    WriteError(writer,
               Status::NotFound("model '" + model +
                                "' does not accept ingest here (no ingest "
                                "pipeline attached)"));
    return;
  }

  const JsonValue* inputs_field = parsed->Find("inputs");
  if (inputs_field == nullptr || !inputs_field->is_array()) {
    WriteError(writer, Status::InvalidArgument(
                           "'inputs' must be an array of input objects"));
    return;
  }
  std::vector<service::IngestInput> inputs;
  inputs.reserve(inputs_field->array_items().size());
  for (const JsonValue& item : inputs_field->array_items()) {
    if (!item.is_object()) {
      WriteError(writer, Status::InvalidArgument(
                             "each input must be an object with 'values'"));
      return;
    }
    const JsonValue* values = item.Find("values");
    if (values == nullptr || !values->is_array()) {
      WriteError(writer, Status::InvalidArgument(
                             "each input needs a 'values' number array"));
      return;
    }
    service::IngestInput input;
    input.values.reserve(values->array_items().size());
    for (const JsonValue& v : values->array_items()) {
      if (!v.is_number()) {
        WriteError(writer,
                   Status::InvalidArgument("'values' must hold numbers"));
        return;
      }
      input.values.push_back(static_cast<float>(v.number_value()));
    }
    if (const JsonValue* label = item.Find("label")) {
      if (!label->is_number()) {
        WriteError(writer,
                   Status::InvalidArgument("'label' must be a number"));
        return;
      }
      input.label = static_cast<int>(label->number_value());
    }
    inputs.push_back(std::move(input));
  }

  auto ack = sink->Ingest(inputs);
  if (!ack.ok()) {
    WriteError(writer, ack.status());
    return;
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("model");
  w.String(model);
  w.Key("first_id");
  w.Uint(ack->first_id);
  w.Key("count");
  w.Uint(ack->count);
  w.Key("dataset_size");
  w.Uint(ack->dataset_size);
  w.EndObject();
  writer->WriteResponse(200, "application/json", w.TakeString() + "\n");
}

void QueryServer::HandleSnapshot(const HttpRequest& request,
                                 HttpResponseWriter* writer, bool save) {
  std::string model = registry_->default_model();
  const auto param = request.query.find("model");
  if (param != request.query.end()) {
    model = param->second;
  } else if (save && !request.body.empty()) {
    auto parsed = ParseJson(request.body);
    if (!parsed.ok()) {
      WriteError(writer, parsed.status());
      return;
    }
    if (const JsonValue* field =
            parsed->is_object() ? parsed->Find("model") : nullptr) {
      if (!field->is_string()) {
        WriteError(writer,
                   Status::InvalidArgument("'model' must be a string"));
        return;
      }
      model = field->string_value();
    }
  }
  service::IngestSink* sink = registry_->FindIngest(model);
  if (sink == nullptr) {
    WriteError(writer,
               Status::NotFound("model '" + model +
                                "' has no ingest/snapshot pipeline here"));
    return;
  }
  if (save) {
    const Status saved = sink->SaveSnapshot();
    if (!saved.ok()) {
      WriteError(writer, saved);
      return;
    }
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("model");
  w.String(model);
  if (save) {
    w.Key("saved");
    w.Bool(true);
  }
  WriteIngestStatsFields(sink->Stats(), &w);
  w.EndObject();
  writer->WriteResponse(200, "application/json", w.TakeString() + "\n");
}

void QueryServer::HandleModels(HttpResponseWriter* writer) {
  JsonWriter w;
  w.BeginObject();
  w.Key("models");
  w.BeginArray();
  for (const std::string& name : registry_->ModelNames()) w.String(name);
  w.EndArray();
  w.Key("default");
  w.String(registry_->default_model());
  w.EndObject();
  writer->WriteResponse(200, "application/json", w.TakeString() + "\n");
}

void QueryServer::HandleStats(HttpResponseWriter* writer) {
  JsonWriter w;
  w.BeginObject();
  w.Key("server");
  w.BeginObject();
  w.Key("uptime_seconds");
  w.Double(uptime_.ElapsedSeconds());
  w.Key("start_unix_seconds");
  w.Int(start_unix_seconds_);
  WriteBuildInfoFields(&w);
  w.EndObject();
  w.Key("default_model");
  w.String(registry_->default_model());
  w.Key("models");
  w.BeginArray();
  for (const std::string& name : registry_->ModelNames()) {
    service::QueryService* service = registry_->Find(name);
    if (service == nullptr) continue;  // raced registration; never removed
    w.BeginObject();
    w.Key("model");
    w.String(name);
    WriteServiceStatsFields(service->Snapshot(), &w);
    // Live scheduling states of this model's in-progress HTTP queries
    // (lock-free lifecycle snapshots; may trail the authoritative state by
    // one transition). Expired entries are pruned as we pass.
    size_t queued = 0;
    size_t running = 0;
    size_t parked = 0;
    {
      common::MutexLock lock(&live_mu_);
      for (auto it = live_.begin(); it != live_.end();) {
        const std::shared_ptr<core::QueryContext> ctx = it->second.ctx.lock();
        if (ctx == nullptr) {
          it = live_.erase(it);
          continue;
        }
        if (it->second.service == service) {
          switch (ctx->lifecycle()) {
            case core::QueryContext::Lifecycle::kQueued: ++queued; break;
            case core::QueryContext::Lifecycle::kRunning: ++running; break;
            case core::QueryContext::Lifecycle::kParked: ++parked; break;
            case core::QueryContext::Lifecycle::kFinished: break;
          }
        }
        ++it;
      }
    }
    w.Key("states");
    w.BeginObject();
    w.Key("queued");
    w.Uint(queued);
    w.Key("running");
    w.Uint(running);
    w.Key("parked");
    w.Uint(parked);
    w.EndObject();
    // Ingest pipeline state, for models that accept ingest.
    if (service::IngestSink* sink = registry_->FindIngest(name)) {
      w.Key("ingest");
      w.BeginObject();
      WriteIngestStatsFields(sink->Stats(), &w);
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  writer->WriteResponse(200, "application/json", w.TakeString() + "\n");
}

}  // namespace net
}  // namespace deepeverest
