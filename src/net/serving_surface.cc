#include "net/serving_surface.h"

#include <type_traits>
#include <vector>

#include "common/build_info.h"
#include "service/metrics_registry.h"

namespace deepeverest {
namespace net {

namespace {

using service::IngestStats;
using service::MetricsEmitter;
using service::QosClassStats;
using service::ServiceStats;

/// One served value: a JSON int, double or bool, and a double in the
/// scrape.
struct Reading {
  enum Kind { kInt, kDouble, kBool } kind;
  double value;
};

/// Reads one member of a stats struct; the member's C++ type picks the
/// JSON kind.
template <auto kMember, typename Source>
Reading Read(const Source& source) {
  const auto value = source.*kMember;
  if constexpr (std::is_same_v<decltype(value), const bool>) {
    return {Reading::kBool, value ? 1.0 : 0.0};
  } else if constexpr (std::is_floating_point_v<decltype(value)>) {
    return {Reading::kDouble, value};
  } else {
    return {Reading::kInt, static_cast<double>(value)};
  }
}

/// One served field, declared once. `key` names it in the JSON surfaces
/// and `metric` in /v1/metrics; either is null where the field is served
/// on one side only. A metric named `*_total` is a counter, any other a
/// gauge (the Prometheus naming convention). `code` labels the HTTP
/// responses by status family.
template <typename Source>
struct Field {
  const char* key;
  Reading (*read)(const Source&);
  const char* metric = nullptr;
  const char* help = nullptr;
  const char* code = nullptr;
};

// --- The declarations ------------------------------------------------------

using S = ServiceStats;
const Field<S> kServiceFields[] = {
    {"submitted", Read<&S::submitted>, "deepeverest_queries_submitted_total",
     "Queries admitted to the service queue."},
    {"rejected_queue_full", Read<&S::rejected_queue_full>,
     "deepeverest_queries_rejected_queue_full_total",
     "Submissions rejected because the admission queue was full."},
    {"rejected_session_limit", Read<&S::rejected_session_limit>,
     "deepeverest_queries_rejected_session_limit_total",
     "Submissions rejected by the per-session queued-query bound."},
    {"completed", Read<&S::completed>, "deepeverest_queries_completed_total",
     "Queries executed to an OK result."},
    {"failed", Read<&S::failed>, "deepeverest_queries_failed_total",
     "Queries that executed but returned an error."},
    {"cancelled", Read<&S::cancelled>, "deepeverest_queries_cancelled_total",
     "Queries cancelled before or during execution."},
    {"deadline_exceeded", Read<&S::deadline_exceeded>,
     "deepeverest_queries_deadline_exceeded_total",
     "Queries aborted mid-execution by their deadline."},
    {"rejected_past_deadline", Read<&S::rejected_past_deadline>,
     "deepeverest_queries_rejected_past_deadline_total",
     "Queries whose deadline expired while queued (never executed)."},
    {"queue_depth", Read<&S::queue_depth>, "deepeverest_queue_depth",
     "Admitted queries waiting for a worker."},
    {"inflight", Read<&S::inflight>, "deepeverest_queries_inflight",
     "Queries currently executing."},
    {"parked", Read<&S::parked>, "deepeverest_queries_parked",
     "Queries preempted mid-flight, waiting to be resumed."},
    {"parked_total", Read<&S::parked_total>, "deepeverest_queries_parked_total",
     "Park transitions: non-interactive queries preempted between NTA "
     "rounds to free a worker for interactive work."},
    {"resumed_total", Read<&S::resumed_total>,
     "deepeverest_queries_resumed_total",
     "Resume transitions: parked queries picked back up by a worker."},
    {"preemptions", Read<&S::preemptions>, "deepeverest_preemptions_total",
     "Park-and-switch events where a worker handed itself directly to a "
     "waiting interactive query."},
    {"active_sessions", Read<&S::active_sessions>,
     "deepeverest_active_sessions", "Sessions with queued work."},
    {"p50_latency_seconds", Read<&S::p50_latency_seconds>},
    {"p90_latency_seconds", Read<&S::p90_latency_seconds>},
    {"p99_latency_seconds", Read<&S::p99_latency_seconds>},
    {"num_workers", Read<&S::num_workers>},
    {"uptime_seconds", Read<&S::uptime_seconds>,
     "deepeverest_service_uptime_seconds",
     "Seconds since this model's service started."},
    {"worker_busy_seconds", Read<&S::worker_busy_seconds>},
    {"worker_utilization", Read<&S::worker_utilization>,
     "deepeverest_worker_utilization",
     "Worker-pool busy fraction since service start, in [0, 1]."},
    {"batching_enabled", Read<&S::batching_enabled>},
    {"batch_size", Read<&S::batch_size>},
};

/// Served only for an engine with IQA.
using Q = core::IqaCache::Stats;
const Field<Q> kIqaFields[] = {
    {nullptr, Read<&Q::hits>, "deepeverest_iqa_hits_total",
     "IQA activation-cache hits."},
    {nullptr, Read<&Q::misses>, "deepeverest_iqa_misses_total",
     "IQA activation-cache misses."},
    {nullptr, Read<&Q::evictions>, "deepeverest_iqa_evictions_total",
     "IQA activation-cache evictions."},
    {nullptr, Read<&Q::size_bytes>, "deepeverest_iqa_cache_bytes",
     "Bytes of cached activations."},
    {nullptr, Read<&Q::capacity_bytes>, "deepeverest_iqa_cache_capacity_bytes",
     "Configured IQA cache capacity."},
};

/// Served only with cross-query batching on.
using B = nn::BatchSchedulerStats;
const Field<B> kBatchingFields[] = {
    {nullptr, Read<&B::batches_dispatched>,
     "deepeverest_batches_dispatched_total",
     "Device batches launched by the batching scheduler."},
    {nullptr, Read<&B::inputs_dispatched>,
     "deepeverest_batch_inputs_dispatched_total",
     "Inputs carried by those batches."},
    {nullptr, Read<&B::shared_batches>, "deepeverest_shared_batches_total",
     "Batches that served more than one query."},
    {nullptr, Read<&B::linger_flushes>,
     "deepeverest_batch_linger_flushes_total",
     "Partial batches flushed by the linger window."},
    {nullptr, Read<&B::sealed_by_interactive>,
     "deepeverest_batches_sealed_by_interactive_total",
     "Partial batches launched early for an interactive request."},
};

using C = QosClassStats;
const Field<C> kClassFields[] = {
    {"submitted", Read<&C::submitted>},
    {"completed", Read<&C::completed>},
    {"failed", Read<&C::failed>},
    {"cancelled", Read<&C::cancelled>},
    {"deadline_exceeded", Read<&C::deadline_exceeded>},
    {"rejected_past_deadline", Read<&C::rejected_past_deadline>},
    {"p50_latency_seconds", Read<&C::p50_latency_seconds>},
    {"p90_latency_seconds", Read<&C::p90_latency_seconds>},
    {"p99_latency_seconds", Read<&C::p99_latency_seconds>},
    {"batch_fill", Read<&C::batch_fill>},
};

const Field<LiveStates> kStateFields[] = {
    {"queued", Read<&LiveStates::queued>},
    {"running", Read<&LiveStates::running>},
    {"parked", Read<&LiveStates::parked>},
};

using I = IngestStats;
const Field<I> kIngestFields[] = {
    {"dataset_size", Read<&I::dataset_size>, "deepeverest_ingest_dataset_size",
     "Inputs visible to queries (dataset size)."},
    {"ingested_total", Read<&I::ingested_total>,
     "deepeverest_ingested_inputs_total",
     "Inputs durably accepted by POST /v1/ingest."},
    {"rejected_total", Read<&I::rejected_total>,
     "deepeverest_ingest_rejected_total",
     "Ingest batches rejected because the apply backlog was full."},
    {"applies_total", Read<&I::applies_total>,
     "deepeverest_ingest_applies_total",
     "Incremental index apply passes completed."},
    {"min_watermark", Read<&I::min_watermark>, "deepeverest_ingest_watermark",
     "Minimum index high-watermark across built layers; equals the dataset "
     "size when the index tier is caught up."},
    {"snapshots_written", Read<&I::snapshots_written>,
     "deepeverest_snapshots_written_total",
     "Snapshots committed since process start."},
    {"snapshot_bytes", Read<&I::snapshot_bytes>, "deepeverest_snapshot_bytes",
     "On-disk size of the last committed snapshot."},
    {"snapshot_age_seconds", Read<&I::snapshot_age_seconds>,
     "deepeverest_snapshot_age_seconds",
     "Seconds since the last committed snapshot (-1 = none)."},
    {"snapshot_dataset_size", Read<&I::snapshot_dataset_size>},
};

const Field<ServingSources> kServerFields[] = {
    {"uptime_seconds", Read<&ServingSources::uptime_seconds>,
     "deepeverest_server_uptime_seconds",
     "Seconds since this HTTP server started."},
    {"start_unix_seconds", Read<&ServingSources::start_unix_seconds>,
     "deepeverest_server_start_time_seconds",
     "Unix time the HTTP server started."},
};

using H = HttpServerStats;
const char kResponses[] = "deepeverest_http_responses_total";
const char kResponsesHelp[] = "HTTP responses by status family.";
const Field<H> kHttpFields[] = {
    {nullptr, Read<&H::connections_accepted>,
     "deepeverest_http_connections_accepted_total",
     "TCP connections accepted by the HTTP front-end."},
    {nullptr, Read<&H::requests_handled>, "deepeverest_http_requests_total",
     "HTTP responses written, including parse-error replies."},
    {nullptr, Read<&H::responses_2xx>, kResponses, kResponsesHelp, "2xx"},
    {nullptr, Read<&H::responses_4xx>, kResponses, kResponsesHelp, "4xx"},
    {nullptr, Read<&H::responses_5xx>, kResponses, kResponsesHelp, "5xx"},
};

// --- The two renderers -----------------------------------------------------

/// Writes every field of `fields` that has a JSON key.
template <typename Source, size_t N>
void WriteMembers(const Field<Source> (&fields)[N], const Source& source,
                  JsonWriter* w) {
  for (const Field<Source>& field : fields) {
    if (field.key == nullptr) continue;
    const Reading reading = field.read(source);
    w->Key(field.key);
    if (reading.kind == Reading::kInt) {
      w->Int(static_cast<int64_t>(reading.value));
    } else if (reading.kind == Reading::kBool) {
      w->Bool(reading.value != 0.0);
    } else {
      w->Double(reading.value);
    }
  }
}

/// Emits every field of `fields` that has a metric name.
template <typename Source, size_t N>
void EmitSeries(const Field<Source> (&fields)[N], const Source& source,
                const MetricsEmitter::Labels& labels,
                MetricsEmitter* emitter) {
  for (const Field<Source>& field : fields) {
    if (field.metric == nullptr) continue;
    const Reading reading = field.read(source);
    MetricsEmitter::Labels series = labels;
    if (field.code != nullptr) series.emplace_back("code", field.code);
    const std::string metric = field.metric;
    if (metric.size() > 6 &&
        metric.compare(metric.size() - 6, 6, "_total") == 0) {
      emitter->Counter(metric, field.help, series, reading.value);
    } else {
      emitter->Gauge(metric, field.help, series, reading.value);
    }
  }
}

/// The compiled-in build description: the `build` object of /healthz and
/// /v1/stats, and the labels of `deepeverest_build_info` (all but the
/// flags).
const std::pair<const char*, const char* BuildInfo::*> kBuildFields[] = {
    {"compiler", &BuildInfo::compiler},
    {"cxx_flags", &BuildInfo::cxx_flags},
    {"build_type", &BuildInfo::build_type},
    {"git", &BuildInfo::git_describe},
};

void WriteBuild(JsonWriter* w) {
  w->Key("build");
  w->BeginObject();
  for (const auto& [key, member] : kBuildFields) {
    w->Key(key);
    w->String(GetBuildInfo().*member);
  }
  w->EndObject();
}

/// Coarsens the 128-bucket LatencyHistogram to every 8th boundary (15
/// finite `le` bounds + `+Inf`) — plenty of resolution for a dashboard at
/// an eighth of the exposition size.
std::vector<std::pair<double, int64_t>> CoarseLatencyBuckets(
    const std::vector<int64_t>& buckets) {
  std::vector<std::pair<double, int64_t>> out;
  int64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if ((i + 1) % 8 == 0 && i + 1 < buckets.size()) {
      out.emplace_back(
          service::LatencyHistogram::BucketUpperSeconds(static_cast<int>(i)),
          cumulative);
    }
  }
  return out;
}

/// The series of one model that keep their own emit code: the per-class
/// latency histograms and, with batching on, the batch fill (mean ratio
/// and per-batch histogram).
void EmitHistograms(const ServiceStats& stats,
                    const MetricsEmitter::Labels& by_model,
                    MetricsEmitter* emitter) {
  for (int c = 0; c < kNumQosClasses; ++c) {
    const QosClassStats& cls = stats.per_class[static_cast<size_t>(c)];
    MetricsEmitter::Labels labels = by_model;
    labels.emplace_back("class", QosClassName(static_cast<QosClass>(c)));
    int64_t count = 0;
    for (int64_t n : cls.latency_buckets) count += n;
    emitter->Histogram("deepeverest_query_latency_seconds",
                       "Admission-to-completion latency of executed queries.",
                       labels, CoarseLatencyBuckets(cls.latency_buckets),
                       cls.approx_latency_sum_seconds, count);
  }
  if (!stats.batching_enabled) return;
  const nn::BatchSchedulerStats& b = stats.batching;
  emitter->Gauge("deepeverest_batch_fill_ratio",
                 "Mean device-batch occupancy since start, in [0, 1].",
                 by_model, b.AverageFill(stats.batch_size));
  std::vector<std::pair<double, int64_t>> fill_buckets;
  int64_t cumulative = 0;
  // The +Inf bucket (== count) is appended by Histogram(); the 8th
  // bucket's bound 1.0 stays finite and explicit.
  for (int i = 0; i < nn::BatchSchedulerStats::kFillBuckets; ++i) {
    cumulative += b.fill_histogram[static_cast<size_t>(i)];
    fill_buckets.emplace_back(
        static_cast<double>(i + 1) /
            static_cast<double>(nn::BatchSchedulerStats::kFillBuckets),
        cumulative);
  }
  const double fill_sum =
      stats.batch_size > 0 ? static_cast<double>(b.inputs_dispatched) /
                                 static_cast<double>(stats.batch_size)
                           : 0.0;
  emitter->Histogram("deepeverest_batch_fill_fraction",
                     "Per-batch occupancy fraction at dispatch.", by_model,
                     fill_buckets, fill_sum, b.batches_dispatched);
}

}  // namespace

void WriteIngestMembers(const IngestStats& stats, JsonWriter* w) {
  WriteMembers(kIngestFields, stats, w);
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
}

std::string RenderStatsJson(const ServingSources& sources) {
  JsonWriter w;
  w.BeginObject();
  w.Key("server");
  w.BeginObject();
  WriteMembers(kServerFields, sources, &w);
  WriteBuild(&w);
  w.EndObject();
  w.Key("default_model");
  w.String(sources.registry->default_model());
  w.Key("models");
  w.BeginArray();
  for (const service::EngineRegistry::Entry& model :
       sources.registry->Entries()) {
    const ServiceStats stats = model.service->Snapshot();
    w.BeginObject();
    w.Key("model");
    w.String(model.name);
    WriteMembers(kServiceFields, stats, &w);
    w.Key("per_class");
    w.BeginArray();
    for (int c = 0; c < kNumQosClasses; ++c) {
      w.BeginObject();
      w.Key("class");
      w.String(QosClassName(static_cast<QosClass>(c)));
      WriteMembers(kClassFields, stats.per_class[static_cast<size_t>(c)], &w);
      w.EndObject();
    }
    w.EndArray();
    const auto states = sources.states.find(model.service);
    w.Key("states");
    w.BeginObject();
    WriteMembers(kStateFields,
                 states == sources.states.end() ? LiveStates{} : states->second,
                 &w);
    w.EndObject();
    if (model.ingest != nullptr) {
      w.Key("ingest");
      w.BeginObject();
      WriteIngestMembers(model.ingest->Stats(), &w);
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString() + "\n";
}

std::string RenderHealthzJson(const ServingSources& sources) {
  JsonWriter w;
  w.BeginObject();
  w.Key("status");
  w.String("ok");
  WriteMembers(kServerFields, sources, &w);
  WriteBuild(&w);
  w.EndObject();
  return w.TakeString() + "\n";
}

std::string RenderPrometheusText(const ServingSources& sources) {
  MetricsEmitter emitter;
  for (const service::EngineRegistry::Entry& model :
       sources.registry->Entries()) {
    const ServiceStats stats = model.service->Snapshot();
    const MetricsEmitter::Labels by_model = {{"model", model.name}};
    EmitSeries(kServiceFields, stats, by_model, &emitter);
    if (stats.iqa) EmitSeries(kIqaFields, *stats.iqa, by_model, &emitter);
    if (stats.batching_enabled) {
      EmitSeries(kBatchingFields, stats.batching, by_model, &emitter);
    }
    EmitHistograms(stats, by_model, &emitter);
    if (model.ingest != nullptr) {
      EmitSeries(kIngestFields, model.ingest->Stats(), by_model, &emitter);
    }
  }
  EmitSeries(kServerFields, sources, {}, &emitter);
  EmitSeries(kHttpFields, sources.http, {}, &emitter);
  MetricsEmitter::Labels build;
  for (const auto& [key, member] : kBuildFields) {
    if (member != &BuildInfo::cxx_flags) {
      build.emplace_back(key, GetBuildInfo().*member);
    }
  }
  emitter.Gauge("deepeverest_build_info",
                "Build metadata; the value is always 1.", build, 1.0);
  return emitter.Render();
}

}  // namespace net
}  // namespace deepeverest
