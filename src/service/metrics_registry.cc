#include "service/metrics_registry.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "service/engine_registry.h"
#include "service/query_service.h"
#include "service/service_stats.h"

namespace deepeverest {
namespace service {

namespace {

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

/// Renders a sample value. Integral values print without a fraction (the
/// common case: counters); everything else gets enough digits to round-trip.
std::string FormatValue(double value) {
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  if (std::isnan(value)) return "NaN";
  if (value == std::floor(value) && std::abs(value) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
    return buf;
  }
  char buf[64];
  // Prometheus exposition text is human-scraped, not round-tripped; 10
  // significant digits beat 17 for dashboard readability and nothing
  // downstream re-parses these into the bit-exact wire path.
  std::snprintf(buf, sizeof(buf), "%.10g", value);  // lint:allow(double-format)
  return buf;
}

}  // namespace

MetricsEmitter::Family* MetricsEmitter::FamilyFor(const std::string& name,
                                                  const std::string& help,
                                                  const char* type) {
  auto it = families_.find(name);
  if (it == families_.end()) {
    order_.push_back(name);
    Family family;
    family.help = help;
    family.type = type;
    it = families_.emplace(name, std::move(family)).first;
  }
  return &it->second;
}

void MetricsEmitter::AddSample(Family* family, const std::string& name,
                               const Labels& labels, const char* extra_key,
                               const std::string& extra_value, double value) {
  std::string line = name;
  if (!labels.empty() || extra_key != nullptr) {
    line += "{";
    bool first = true;
    for (const auto& [key, label_value] : labels) {
      if (!first) line += ",";
      first = false;
      line += key;
      line += "=\"";
      line += EscapeLabelValue(label_value);
      line += "\"";
    }
    if (extra_key != nullptr) {
      if (!first) line += ",";
      line += extra_key;
      line += "=\"";
      line += extra_value;  // always a number or +Inf; nothing to escape
      line += "\"";
    }
    line += "}";
  }
  line += " ";
  line += FormatValue(value);
  family->samples.push_back(std::move(line));
}

void MetricsEmitter::Counter(const std::string& name, const std::string& help,
                             const Labels& labels, double value) {
  AddSample(FamilyFor(name, help, "counter"), name, labels, nullptr, "",
            value);
}

void MetricsEmitter::Gauge(const std::string& name, const std::string& help,
                           const Labels& labels, double value) {
  AddSample(FamilyFor(name, help, "gauge"), name, labels, nullptr, "", value);
}

void MetricsEmitter::Histogram(
    const std::string& name, const std::string& help, const Labels& labels,
    const std::vector<std::pair<double, int64_t>>& cumulative_buckets,
    double sum, int64_t count) {
  Family* family = FamilyFor(name, help, "histogram");
  for (const auto& [upper, cumulative] : cumulative_buckets) {
    AddSample(family, name + "_bucket", labels, "le", FormatValue(upper),
              static_cast<double>(cumulative));
  }
  AddSample(family, name + "_bucket", labels, "le", "+Inf",
            static_cast<double>(count));
  AddSample(family, name + "_sum", labels, nullptr, "", sum);
  AddSample(family, name + "_count", labels, nullptr, "",
            static_cast<double>(count));
}

std::string MetricsEmitter::Render() const {
  std::string out;
  for (const std::string& name : order_) {
    const Family& family = families_.at(name);
    out += "# HELP " + name + " " + family.help + "\n";
    out += "# TYPE " + name + " ";
    out += family.type;
    out += "\n";
    for (const std::string& sample : family.samples) {
      out += sample;
      out += "\n";
    }
  }
  return out;
}

int64_t MetricsRegistry::AddCollector(Collector collector) {
  common::MutexLock lock(&mu_);
  const int64_t handle = next_handle_++;
  collectors_.emplace_back(handle, std::move(collector));
  return handle;
}

void MetricsRegistry::RemoveCollector(int64_t handle) {
  common::MutexLock lock(&mu_);
  collectors_.erase(
      std::remove_if(collectors_.begin(), collectors_.end(),
                     [handle](const std::pair<int64_t, Collector>& entry) {
                       return entry.first == handle;
                     }),
      collectors_.end());
}

std::string MetricsRegistry::RenderPrometheusText() const {
  MetricsEmitter emitter;
  {
    common::MutexLock lock(&mu_);
    for (const auto& [handle, collector] : collectors_) {
      collector(&emitter);
    }
  }
  return emitter.Render();
}

namespace {

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
      out.emplace_back(LatencyHistogram::BucketUpperSeconds(static_cast<int>(i)),
                       cumulative);
    }
  }
  return out;
}

void CollectModelMetrics(MetricsEmitter* emitter, const std::string& model,
                         QueryService* service) {
  const ServiceStats stats = service->Snapshot();
  const MetricsEmitter::Labels by_model = {{"model", model}};

  emitter->Counter("deepeverest_queries_submitted_total",
                   "Queries admitted to the service queue.", by_model,
                   static_cast<double>(stats.submitted));
  emitter->Counter("deepeverest_queries_completed_total",
                   "Queries executed to an OK result.", by_model,
                   static_cast<double>(stats.completed));
  emitter->Counter("deepeverest_queries_failed_total",
                   "Queries that executed but returned an error.", by_model,
                   static_cast<double>(stats.failed));
  emitter->Counter("deepeverest_queries_cancelled_total",
                   "Queries cancelled before or during execution.", by_model,
                   static_cast<double>(stats.cancelled));
  emitter->Counter("deepeverest_queries_deadline_exceeded_total",
                   "Queries aborted mid-execution by their deadline.",
                   by_model, static_cast<double>(stats.deadline_exceeded));
  emitter->Counter(
      "deepeverest_queries_rejected_past_deadline_total",
      "Queries whose deadline expired while queued (never executed).",
      by_model, static_cast<double>(stats.rejected_past_deadline));
  emitter->Counter("deepeverest_queries_rejected_queue_full_total",
                   "Submissions rejected because the admission queue was "
                   "full.",
                   by_model, static_cast<double>(stats.rejected_queue_full));
  emitter->Counter(
      "deepeverest_queries_rejected_session_limit_total",
      "Submissions rejected by the per-session queued-query bound.", by_model,
      static_cast<double>(stats.rejected_session_limit));

  emitter->Counter("deepeverest_queries_parked_total",
                   "Park transitions: non-interactive queries preempted "
                   "between NTA rounds to free a worker for interactive "
                   "work.",
                   by_model, static_cast<double>(stats.parked_total));
  emitter->Counter("deepeverest_queries_resumed_total",
                   "Resume transitions: parked queries picked back up by a "
                   "worker.",
                   by_model, static_cast<double>(stats.resumed_total));
  emitter->Counter("deepeverest_preemptions_total",
                   "Park-and-switch events where a worker handed itself "
                   "directly to a waiting interactive query.",
                   by_model, static_cast<double>(stats.preemptions));

  emitter->Gauge("deepeverest_queue_depth",
                 "Admitted queries waiting for a worker.", by_model,
                 static_cast<double>(stats.queue_depth));
  emitter->Gauge("deepeverest_queries_inflight",
                 "Queries currently executing.", by_model,
                 static_cast<double>(stats.inflight));
  emitter->Gauge("deepeverest_queries_parked",
                 "Queries preempted mid-flight, waiting to be resumed.",
                 by_model, static_cast<double>(stats.parked));
  emitter->Gauge("deepeverest_active_sessions",
                 "Sessions with queued work.", by_model,
                 static_cast<double>(stats.active_sessions));
  emitter->Gauge("deepeverest_worker_utilization",
                 "Worker-pool busy fraction since service start, in [0, 1].",
                 by_model, stats.worker_utilization);
  emitter->Gauge("deepeverest_service_uptime_seconds",
                 "Seconds since this model's service started.", by_model,
                 stats.uptime_seconds);

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

  if (stats.iqa.has_value()) {
    const core::IqaCache::Stats& iqa = *stats.iqa;
    emitter->Counter("deepeverest_iqa_hits_total", "IQA activation-cache hits.",
                     by_model, static_cast<double>(iqa.hits));
    emitter->Counter("deepeverest_iqa_misses_total",
                     "IQA activation-cache misses.", by_model,
                     static_cast<double>(iqa.misses));
    emitter->Counter("deepeverest_iqa_evictions_total",
                     "IQA activation-cache evictions.", by_model,
                     static_cast<double>(iqa.evictions));
    emitter->Gauge("deepeverest_iqa_cache_bytes",
                   "Bytes of cached activations.", by_model,
                   static_cast<double>(iqa.size_bytes));
    emitter->Gauge("deepeverest_iqa_cache_capacity_bytes",
                   "Configured IQA cache capacity.", by_model,
                   static_cast<double>(iqa.capacity_bytes));
  }

  if (stats.batching_enabled) {
    const nn::BatchSchedulerStats& b = stats.batching;
    emitter->Counter("deepeverest_batches_dispatched_total",
                     "Device batches launched by the batching scheduler.",
                     by_model, static_cast<double>(b.batches_dispatched));
    emitter->Counter("deepeverest_batch_inputs_dispatched_total",
                     "Inputs carried by those batches.", by_model,
                     static_cast<double>(b.inputs_dispatched));
    emitter->Counter("deepeverest_shared_batches_total",
                     "Batches that served more than one query.", by_model,
                     static_cast<double>(b.shared_batches));
    emitter->Counter("deepeverest_batch_linger_flushes_total",
                     "Partial batches flushed by the linger window.",
                     by_model, static_cast<double>(b.linger_flushes));
    emitter->Counter(
        "deepeverest_batches_sealed_by_interactive_total",
        "Partial batches launched early for an interactive request.",
        by_model, static_cast<double>(b.sealed_by_interactive));
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
}

}  // namespace

int64_t RegisterServiceMetrics(MetricsRegistry* metrics,
                               const EngineRegistry* models) {
  return metrics->AddCollector([models](MetricsEmitter* emitter) {
    for (const std::string& name : models->ModelNames()) {
      QueryService* service = models->Find(name);
      if (service != nullptr) CollectModelMetrics(emitter, name, service);
    }
  });
}

// ---------------------------------------------------------------------------
// Exposition-format validator
// ---------------------------------------------------------------------------

namespace {

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = std::isalpha(static_cast<unsigned char>(c)) != 0;
    const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    if (!(alpha || c == '_' || c == ':' || (digit && i > 0))) return false;
  }
  return true;
}

bool ValidLabelName(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = std::isalpha(static_cast<unsigned char>(c)) != 0;
    const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    if (!(alpha || c == '_' || (digit && i > 0))) return false;
  }
  return true;
}

bool ParseSampleValue(const std::string& text, double* value) {
  if (text == "+Inf") {
    *value = std::numeric_limits<double>::infinity();
    return true;
  }
  if (text == "-Inf") {
    *value = -std::numeric_limits<double>::infinity();
    return true;
  }
  if (text == "NaN") {
    *value = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0' && end != text.c_str();
}

struct ParsedSample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0.0;
};

Status ParseSampleLine(const std::string& line, size_t line_no,
                       ParsedSample* out) {
  auto fail = [&](const std::string& what) {
    return Status::InvalidArgument("line " + std::to_string(line_no) + ": " +
                                   what + ": " + line);
  };
  size_t pos = 0;
  while (pos < line.size() && line[pos] != '{' && line[pos] != ' ') ++pos;
  out->name = line.substr(0, pos);
  if (!ValidMetricName(out->name)) return fail("bad metric name");
  if (pos < line.size() && line[pos] == '{') {
    ++pos;
    while (pos < line.size() && line[pos] != '}') {
      size_t eq = line.find('=', pos);
      if (eq == std::string::npos) return fail("label without '='");
      const std::string label = line.substr(pos, eq - pos);
      if (!ValidLabelName(label)) return fail("bad label name");
      if (eq + 1 >= line.size() || line[eq + 1] != '"') {
        return fail("label value not quoted");
      }
      std::string value;
      size_t i = eq + 2;
      for (; i < line.size() && line[i] != '"'; ++i) {
        if (line[i] == '\\') {
          if (i + 1 >= line.size()) return fail("dangling escape");
          const char next = line[i + 1];
          if (next == '\\' || next == '"') {
            value.push_back(next);
          } else if (next == 'n') {
            value.push_back('\n');
          } else {
            return fail("bad escape in label value");
          }
          ++i;
        } else {
          value.push_back(line[i]);
        }
      }
      if (i >= line.size()) return fail("unterminated label value");
      out->labels.emplace_back(label, value);
      pos = i + 1;
      if (pos < line.size() && line[pos] == ',') ++pos;
    }
    if (pos >= line.size() || line[pos] != '}') {
      return fail("unterminated label set");
    }
    ++pos;
  }
  if (pos >= line.size() || line[pos] != ' ') {
    return fail("missing value separator");
  }
  ++pos;
  // Optional-timestamp syntax is not emitted here; a second token fails.
  const std::string value_text = line.substr(pos);
  if (value_text.find(' ') != std::string::npos) {
    return fail("unexpected trailing token");
  }
  if (!ParseSampleValue(value_text, &out->value)) {
    return fail("bad sample value");
  }
  return Status::OK();
}

/// The family a sample belongs to: histogram series names carry a
/// _bucket/_sum/_count suffix on top of the family name.
std::string FamilyOf(
    const std::string& name,
    const std::map<std::string, std::string>& family_types) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const size_t len = std::string(suffix).size();
    if (name.size() > len &&
        name.compare(name.size() - len, len, suffix) == 0) {
      const std::string base = name.substr(0, name.size() - len);
      auto it = family_types.find(base);
      if (it != family_types.end() && it->second == "histogram") return base;
    }
  }
  return name;
}

}  // namespace

Status ValidatePrometheusText(const std::string& text) {
  if (text.empty()) return Status::InvalidArgument("empty exposition");
  if (text.back() != '\n') {
    return Status::InvalidArgument("exposition must end with a newline");
  }
  std::map<std::string, std::string> family_types;  // family -> TYPE
  std::map<std::string, std::string> family_help;
  // Histogram bucket series, keyed by family + label set (minus `le`):
  // the previous cumulative count and bound, plus whether +Inf was seen.
  struct BucketSeries {
    double last_bound = -std::numeric_limits<double>::infinity();
    double last_value = 0.0;
    bool saw_inf = false;
    double inf_value = 0.0;
  };
  std::map<std::string, BucketSeries> buckets;
  std::map<std::string, double> histogram_counts;

  size_t line_no = 0;
  size_t start = 0;
  while (start < text.size()) {
    ++line_no;
    const size_t end = text.find('\n', start);
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# HELP <name> <text>" / "# TYPE <name> <type>"; other comments
      // pass through.
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
        const bool is_type = line.rfind("# TYPE ", 0) == 0;
        const size_t name_start = 7;
        const size_t name_end = line.find(' ', name_start);
        if (name_end == std::string::npos) {
          return Status::InvalidArgument(
              "line " + std::to_string(line_no) + ": truncated " +
              (is_type ? "TYPE" : "HELP") + " line: " + line);
        }
        const std::string name = line.substr(name_start, name_end - name_start);
        if (!ValidMetricName(name)) {
          return Status::InvalidArgument("line " + std::to_string(line_no) +
                                         ": bad metric name in comment: " +
                                         line);
        }
        auto& seen = is_type ? family_types : family_help;
        if (seen.count(name) != 0) {
          return Status::InvalidArgument("line " + std::to_string(line_no) +
                                         ": duplicate " +
                                         (is_type ? "TYPE" : "HELP") +
                                         " for " + name);
        }
        const std::string rest = line.substr(name_end + 1);
        if (is_type && rest != "counter" && rest != "gauge" &&
            rest != "histogram" && rest != "summary" && rest != "untyped") {
          return Status::InvalidArgument("line " + std::to_string(line_no) +
                                         ": unknown TYPE: " + rest);
        }
        seen[name] = rest;
      }
      continue;
    }

    ParsedSample sample;
    DE_RETURN_NOT_OK(ParseSampleLine(line, line_no, &sample));
    const std::string family = FamilyOf(sample.name, family_types);
    auto type_it = family_types.find(family);
    if (type_it == family_types.end()) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": sample before # TYPE for family " +
                                     family);
    }

    if (type_it->second == "histogram" &&
        sample.name == family + "_bucket") {
      std::string series_key = family;
      double bound = 0.0;
      bool have_le = false;
      for (const auto& [key, value] : sample.labels) {
        if (key == "le") {
          have_le = true;
          if (!ParseSampleValue(value, &bound)) {
            return Status::InvalidArgument("line " + std::to_string(line_no) +
                                           ": bad le bound: " + value);
          }
        } else {
          series_key += "|" + key + "=" + value;
        }
      }
      if (!have_le) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": histogram bucket without le");
      }
      BucketSeries& series = buckets[series_key];
      if (bound <= series.last_bound) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": le bounds not increasing");
      }
      if (sample.value < series.last_value) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_no) +
            ": histogram buckets not cumulative");
      }
      series.last_bound = bound;
      series.last_value = sample.value;
      if (std::isinf(bound)) {
        series.saw_inf = true;
        series.inf_value = sample.value;
      }
    } else if (type_it->second == "histogram" &&
               sample.name == family + "_count") {
      std::string series_key = family;
      for (const auto& [key, value] : sample.labels) {
        series_key += "|" + key + "=" + value;
      }
      histogram_counts[series_key] = sample.value;
    }
  }

  for (const auto& [series_key, series] : buckets) {
    if (!series.saw_inf) {
      return Status::InvalidArgument("histogram series " + series_key +
                                     " has no +Inf bucket");
    }
    auto count_it = histogram_counts.find(series_key);
    if (count_it != histogram_counts.end() &&
        count_it->second != series.inf_value) {
      return Status::InvalidArgument("histogram series " + series_key +
                                     ": _count disagrees with +Inf bucket");
    }
  }
  return Status::OK();
}

}  // namespace service
}  // namespace deepeverest
