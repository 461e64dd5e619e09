#include "net/query_server.h"

#include <cstdlib>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/mutex.h"
#include "common/trace.h"
#include "core/query_spec_json.h"

namespace deepeverest {
namespace net {

namespace {

int HttpStatusForCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return 200;
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

/// Opens a query's final reply object and writes its members. The plain
/// reply is `query_id`, `entries`, `stats`, or `error: {code, message}`;
/// the stream's final event is `event: "result"` with `entries` and
/// `stats`, or `event: "error"` with `code` and `message`. The caller may
/// add `trace` before closing the object.
void WriteReply(const Result<core::TopKResult>& result, bool stream,
                uint64_t query_id, JsonWriter* w) {
  w->BeginObject();
  if (stream) {
    w->Key("event");
    w->String(result.ok() ? "result" : "error");
  }
  if (result.ok()) {
    if (!stream) {
      w->Key("query_id");
      w->Uint(query_id);
    }
    w->Key("entries");
    WriteEntries(result->entries, w);
    w->Key("stats");
    WriteQueryStats(result->stats, w);
    return;
  }
  if (!stream) {
    w->Key("error");
    w->BeginObject();
  }
  w->Key("code");
  w->String(StatusCodeToString(result.status().code()));
  w->Key("message");
  w->String(result.status().message());
  if (!stream) w->EndObject();
}

/// The error reply every route answers a failure with.
void WriteError(HttpResponseWriter* writer, const Status& status) {
  JsonWriter w;
  WriteReply(status, /*stream=*/false, 0, &w);
  w.EndObject();
  writer->WriteResponse(HttpStatusForCode(status.code()), "application/json",
                        w.TakeString() + "\n");
}

/// The decimal id that ends `path` after `prefix` (`/v1/query/<id>`,
/// `/v1/trace/<id>`); InvalidArgument naming `what` otherwise.
Result<uint64_t> IdAfter(const std::string& path, const std::string& prefix,
                         const std::string& what) {
  const std::string text = path.substr(prefix.size());
  char* end = nullptr;
  const unsigned long long id = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0') {
    return Status::InvalidArgument(what + " id must be a decimal integer");
  }
  return static_cast<uint64_t>(id);
}

/// A transport flag (`stream`, `trace`): set by the URL parameter `=1`, or
/// by a request field that is true, 1, or "1" — a POST body flag must not
/// be silently ignored while its sibling `model` routes.
bool FlagSet(const HttpRequest& request, const core::JsonFieldFinder& find,
             const std::string& name) {
  const auto param = request.query.find(name);
  if (param != request.query.end() && param->second == "1") return true;
  const JsonValue* field = find(name);
  return field != nullptr &&
         ((field->is_bool() && field->bool_value()) ||
          (field->is_number() && field->number_value() == 1.0) ||
          (field->is_string() && field->string_value() == "1"));
}

/// A request's fields: the members of a POST body, which must be a JSON
/// object, or else the URL parameters, every one a string (the wire
/// codec's readers convert).
Result<JsonValue> RequestFields(const HttpRequest& request) {
  if (request.method != "POST") {
    std::vector<std::pair<std::string, JsonValue>> params;
    for (const auto& [key, value] : request.query) {
      params.emplace_back(key, JsonValue::MakeString(value));
    }
    return JsonValue::MakeObject(std::move(params));
  }
  DE_ASSIGN_OR_RETURN(JsonValue body, ParseJson(request.body));
  if (!body.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  return body;
}

/// The `inputs` array of a POST /v1/ingest body.
Result<std::vector<service::IngestInput>> IngestInputs(
    const JsonValue* field) {
  if (field == nullptr || !field->is_array()) {
    return Status::InvalidArgument(
        "'inputs' must be an array of input objects");
  }
  std::vector<service::IngestInput> inputs;
  inputs.reserve(field->array_items().size());
  for (const JsonValue& item : field->array_items()) {
    if (!item.is_object()) {
      return Status::InvalidArgument(
          "each input must be an object with 'values'");
    }
    const JsonValue* values = item.Find("values");
    if (values == nullptr || !values->is_array()) {
      return Status::InvalidArgument(
          "each input needs a 'values' number array");
    }
    service::IngestInput input;
    input.values.reserve(values->array_items().size());
    for (const JsonValue& v : values->array_items()) {
      if (!v.is_number()) {
        return Status::InvalidArgument("'values' must hold numbers");
      }
      input.values.push_back(static_cast<float>(v.number_value()));
    }
    if (const JsonValue* label = item.Find("label")) {
      if (!label->is_number()) {
        return Status::InvalidArgument("'label' must be a number");
      }
      input.label = static_cast<int>(label->number_value());
    }
    inputs.push_back(std::move(input));
  }
  return inputs;
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
  return server;
}

void QueryServer::Shutdown() { http_->Shutdown(); }

void QueryServer::Handle(const HttpRequest& request,
                         HttpResponseWriter* writer) {
  struct Route {
    const char* path;     // exact, or a prefix when it ends in '/'
    const char* methods;  // space-separated
    void (QueryServer::*handle)(const HttpRequest&, HttpResponseWriter*);
  };
  static const Route kRoutes[] = {
      {"/healthz", "GET", &QueryServer::HandleSurface},
      {"/v1/metrics", "GET", &QueryServer::HandleSurface},
      {"/v1/query/", "DELETE", &QueryServer::HandleCancel},
      {"/v1/trace/", "GET", &QueryServer::HandleTrace},
      {"/v1/models", "GET", &QueryServer::HandleModels},
      {"/v1/ingest", "POST", &QueryServer::HandleIngest},
      {"/v1/snapshot", "GET", &QueryServer::HandleSnapshot},
      {"/v1/snapshot/save", "POST", &QueryServer::HandleSnapshot},
      {"/v1/stats", "GET", &QueryServer::HandleSurface},
      {"/v1/query", "GET POST", &QueryServer::HandleQuery},
      {"/v1/ql", "GET POST", &QueryServer::HandleQuery},
  };
  for (const Route& route : kRoutes) {
    const std::string path = route.path;
    if (path.back() == '/' ? request.path.rfind(path, 0) != 0
                           : request.path != path) {
      continue;
    }
    if ((std::string(" ") + route.methods + " ")
            .find(" " + request.method + " ") == std::string::npos) {
      writer->WriteResponse(405, "text/plain", "method not allowed\n");
      return;
    }
    (this->*route.handle)(request, writer);
    return;
  }
  WriteError(writer, Status::NotFound("no route for " + request.path));
}

void QueryServer::HandleQuery(const HttpRequest& request,
                              HttpResponseWriter* writer) {
  // Both encodings (POST JSON body, GET URL parameters) expose one field
  // source; the shared wire codec does the rest.
  auto fields = RequestFields(request);
  if (!fields.ok()) {
    WriteError(writer, fields.status());
    return;
  }
  const core::JsonFieldFinder find = [&fields](const std::string& name) {
    return fields->Find(name);
  };

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

  if (request.path == "/v1/ql" && find("ql") == nullptr) {
    WriteError(writer,
               Status::InvalidArgument("'ql' is required on /v1/ql"));
    return;
  }

  auto spec = core::QuerySpecFromFields(find);
  if (!spec.ok()) {
    WriteError(writer, spec.status());
    return;
  }
  // The query is traced regardless of `trace`; the flag only controls
  // whether the span tree rides along in the reply (it is always
  // retrievable at /v1/trace/<id> afterwards).
  RunQuery(service, std::move(spec.value()), FlagSet(request, find, "stream"),
           FlagSet(request, find, "trace"), writer);
}

void QueryServer::RunQuery(service::QueryService* service,
                           core::QuerySpec spec, bool stream, bool want_trace,
                           HttpResponseWriter* writer) {
  /// Shared between this connection thread and the worker thread running
  /// a streamed query: the sink below is invoked on the worker, while the
  /// context handle arrives from SubmitWithControl on this thread.
  struct StreamState {
    common::Mutex mu;
    std::shared_ptr<core::QueryContext> ctx GUARDED_BY(mu);
    bool disconnected GUARDED_BY(mu) = false;
  };
  std::shared_ptr<StreamState> state;
  if (stream) {
    state = std::make_shared<StreamState>();
    spec.on_progress = [writer, state](const core::NtaProgress& progress) {
      if (!writer->WriteChunk(ProgressEventJson(progress) + "\n")) {
        // The client is gone: nobody will read the answer, so stop paying
        // inference for it. Cancel (rather than early-stop) so the abort
        // is visible as Cancelled in ServiceStats. Returning true keeps NTA
        // in its loop until the between-rounds CheckRunnable sees the flag.
        common::MutexLock lock(&state->mu);
        state->disconnected = true;
        if (state->ctx != nullptr) state->ctx->Cancel();
      }
      return true;
    };
    if (!writer->BeginChunked(200, "application/x-ndjson")) return;
  }

  // Every reply ends here, after a failed submit (no trace) or a finished
  // query. The reply is built inside its own span so the trace accounts
  // for the response-building tail, then the trace is finished (closing
  // the root) before its snapshot is attached: the span tree sent is final.
  // A plain error reply carries no trace.
  const auto reply = [&](const Result<core::TopKResult>& result, Trace* trace,
                         uint64_t query_id) {
    JsonWriter w;
    {
      SpanScope serialize(trace, "serialize");
      WriteReply(result, stream, query_id, &w);
    }
    if (trace != nullptr) trace->Finish();
    const bool attach_trace =
        want_trace && trace != nullptr && (stream || result.ok());
    if (stream) {  // the result or error event; the trace is its own event
      w.EndObject();
      writer->WriteChunk(w.TakeString() + "\n");
      w = JsonWriter();
      w.BeginObject();
      w.Key("event");
      w.String("trace");
    }
    if (attach_trace) {
      w.Key("trace");
      WriteTraceJson(trace->Snapshot(), &w);
    }
    w.EndObject();
    if (!stream) {
      writer->WriteResponse(HttpStatusForCode(result.status().code()),
                            "application/json", w.TakeString() + "\n");
      return;
    }
    if (attach_trace) writer->WriteChunk(w.TakeString() + "\n");
    writer->EndChunked();
  };

  auto submitted = service->SubmitWithControl(std::move(spec));
  if (!submitted.ok()) {
    reply(submitted.status(), nullptr, 0);
    return;
  }
  const std::shared_ptr<core::QueryContext> ctx = submitted->context;
  Trace* const trace = ctx->trace.get();
  const uint64_t query_id = trace != nullptr ? trace->id() : 0;
  {
    common::MutexLock lock(&live_mu_);
    live_[query_id] = LiveQuery{ctx, service};
  }
  if (stream) {
    {
      common::MutexLock lock(&state->mu);
      state->ctx = ctx;
      // The disconnect may have been observed before the handle existed.
      if (state->disconnected) ctx->Cancel();
    }
    // First event: the query's id, so the client can DELETE /v1/query/<id>
    // (or fetch /v1/trace/<id>) while the stream is still running.
    JsonWriter w;
    w.BeginObject();
    w.Key("event");
    w.String("accepted");
    w.Key("query_id");
    w.Uint(query_id);
    w.EndObject();
    writer->WriteChunk(w.TakeString() + "\n");
  }
  Result<core::TopKResult> result = submitted->result.get();
  {
    common::MutexLock lock(&live_mu_);
    live_.erase(query_id);
  }
  if (trace != nullptr) trace->EndSpan(ctx->respond_span);
  reply(result, trace, query_id);
  // The context owns the sink, the sink captures `state`, and `state`
  // holds the context back — break the cycle now that the query is over
  // (the worker finished with the sink before resolving the future).
  ctx->on_progress = nullptr;
}

ServingSources QueryServer::Sources() const {
  ServingSources sources;
  sources.registry = registry_;
  sources.uptime_seconds = uptime_.ElapsedSeconds();
  sources.start_unix_seconds = start_unix_seconds_;
  sources.http = http_->stats();
  // Lifecycle snapshots are lock-free and may trail the authoritative
  // state by one transition.
  common::MutexLock lock(&live_mu_);
  for (const auto& [id, live] : live_) {
    const std::shared_ptr<core::QueryContext> ctx = live.ctx.lock();
    if (ctx == nullptr) continue;
    LiveStates& states = sources.states[live.service];
    switch (ctx->lifecycle()) {
      case core::QueryContext::Lifecycle::kQueued: ++states.queued; break;
      case core::QueryContext::Lifecycle::kRunning: ++states.running; break;
      case core::QueryContext::Lifecycle::kParked: ++states.parked; break;
      case core::QueryContext::Lifecycle::kFinished: break;
    }
  }
  return sources;
}

std::string QueryServer::RenderPrometheusText() const {
  return net::RenderPrometheusText(Sources());
}

void QueryServer::HandleSurface(const HttpRequest& request,
                                HttpResponseWriter* writer) {
  const ServingSources sources = Sources();
  if (request.path == "/v1/metrics") {
    writer->WriteResponse(200, "text/plain; version=0.0.4; charset=utf-8",
                          net::RenderPrometheusText(sources));
    return;
  }
  writer->WriteResponse(200, "application/json",
                        request.path == "/healthz" ? RenderHealthzJson(sources)
                                                   : RenderStatsJson(sources));
}

void QueryServer::HandleTrace(const HttpRequest& request,
                              HttpResponseWriter* writer) {
  const Result<uint64_t> id = IdAfter(request.path, "/v1/trace/", "trace");
  if (!id.ok()) {
    WriteError(writer, id.status());
    return;
  }
  // Traces live in the per-model services' rings; the id is process-wide
  // unique, so the first hit is the only one.
  std::shared_ptr<Trace> trace;
  for (const service::EngineRegistry::Entry& model : registry_->Entries()) {
    trace = model.service->FindTrace(*id);
    if (trace != nullptr) break;
  }
  if (trace == nullptr) {
    WriteError(writer, Status::NotFound("trace " + std::to_string(*id) +
                                        " is not in the ring (it may have "
                                        "been evicted by newer queries)"));
    return;
  }
  JsonWriter w;
  WriteTraceJson(trace->Snapshot(), &w);
  writer->WriteResponse(200, "application/json", w.TakeString() + "\n");
}

void QueryServer::HandleCancel(const HttpRequest& request,
                               HttpResponseWriter* writer) {
  const Result<uint64_t> id = IdAfter(request.path, "/v1/query/", "query");
  if (!id.ok()) {
    WriteError(writer, id.status());
    return;
  }
  std::shared_ptr<core::QueryContext> ctx;
  {
    common::MutexLock lock(&live_mu_);
    auto it = live_.find(*id);
    if (it != live_.end()) ctx = it->second.ctx.lock();
  }
  if (ctx == nullptr ||
      ctx->lifecycle() == core::QueryContext::Lifecycle::kFinished) {
    WriteError(writer, Status::NotFound("query " + std::to_string(*id) +
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
  w.Uint(*id);
  w.Key("cancel_requested");
  w.Bool(true);
  w.EndObject();
  writer->WriteResponse(200, "application/json", w.TakeString() + "\n");
}

void QueryServer::HandleIngest(const HttpRequest& request,
                               HttpResponseWriter* writer) {
  auto parsed = RequestFields(request);
  if (!parsed.ok()) {
    WriteError(writer, parsed.status());
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

  auto inputs = IngestInputs(parsed->Find("inputs"));
  if (!inputs.ok()) {
    WriteError(writer, inputs.status());
    return;
  }
  auto ack = sink->Ingest(*inputs);
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
                                 HttpResponseWriter* writer) {
  const bool save = request.path == "/v1/snapshot/save";
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
  WriteIngestMembers(sink->Stats(), &w);
  w.EndObject();
  writer->WriteResponse(200, "application/json", w.TakeString() + "\n");
}

void QueryServer::HandleModels(const HttpRequest&,
                               HttpResponseWriter* writer) {
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

}  // namespace net
}  // namespace deepeverest
