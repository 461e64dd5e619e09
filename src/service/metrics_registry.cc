#include "service/metrics_registry.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

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
                               const Labels& labels, double value) {
  std::string line = name;
  if (!labels.empty()) {
    line += "{";
    for (size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) line += ",";
      line += labels[i].first + "=\"" + EscapeLabelValue(labels[i].second) +
              "\"";
    }
    line += "}";
  }
  line += " ";
  line += FormatValue(value);
  family->samples.push_back(std::move(line));
}

void MetricsEmitter::Counter(const std::string& name, const std::string& help,
                             const Labels& labels, double value) {
  AddSample(FamilyFor(name, help, "counter"), name, labels, value);
}

void MetricsEmitter::Gauge(const std::string& name, const std::string& help,
                           const Labels& labels, double value) {
  AddSample(FamilyFor(name, help, "gauge"), name, labels, value);
}

void MetricsEmitter::Histogram(
    const std::string& name, const std::string& help, const Labels& labels,
    const std::vector<std::pair<double, int64_t>>& cumulative_buckets,
    double sum, int64_t count) {
  Family* family = FamilyFor(name, help, "histogram");
  Labels bucket = labels;  // plus `le`, the bucket's upper bound
  bucket.emplace_back("le", "");
  for (const auto& [upper, cumulative] : cumulative_buckets) {
    bucket.back().second = FormatValue(upper);
    AddSample(family, name + "_bucket", bucket,
              static_cast<double>(cumulative));
  }
  bucket.back().second = "+Inf";
  AddSample(family, name + "_bucket", bucket, static_cast<double>(count));
  AddSample(family, name + "_sum", labels, sum);
  AddSample(family, name + "_count", labels, static_cast<double>(count));
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

// ---------------------------------------------------------------------------
// Exposition-format validator
// ---------------------------------------------------------------------------

namespace {

/// Metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; label names the same
/// without ':'.
bool ValidName(const std::string& name, bool colon_ok) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = std::isalpha(static_cast<unsigned char>(c)) != 0;
    const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    if (!(alpha || c == '_' || (colon_ok && c == ':') || (digit && i > 0))) {
      return false;
    }
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
  if (!ValidName(out->name, /*colon_ok=*/true)) return fail("bad metric name");
  if (pos < line.size() && line[pos] == '{') {
    ++pos;
    while (pos < line.size() && line[pos] != '}') {
      size_t eq = line.find('=', pos);
      if (eq == std::string::npos) return fail("label without '='");
      const std::string label = line.substr(pos, eq - pos);
      if (!ValidName(label, /*colon_ok=*/false)) return fail("bad label name");
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
  const auto fail = [&line_no](const std::string& what) {
    return Status::InvalidArgument("line " + std::to_string(line_no) + ": " +
                                   what);
  };
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
          return fail(std::string("truncated ") + (is_type ? "TYPE" : "HELP") +
                      " line: " + line);
        }
        const std::string name = line.substr(name_start, name_end - name_start);
        if (!ValidName(name, /*colon_ok=*/true)) {
          return fail("bad metric name in comment: " + line);
        }
        auto& seen = is_type ? family_types : family_help;
        if (seen.count(name) != 0) {
          return fail(std::string("duplicate ") + (is_type ? "TYPE" : "HELP") +
                      " for " + name);
        }
        const std::string rest = line.substr(name_end + 1);
        if (is_type && rest != "counter" && rest != "gauge" &&
            rest != "histogram" && rest != "summary" && rest != "untyped") {
          return fail("unknown TYPE: " + rest);
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
      return fail("sample before # TYPE for family " + family);
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
            return fail("bad le bound: " + value);
          }
        } else {
          series_key += "|" + key + "=" + value;
        }
      }
      if (!have_le) {
        return fail("histogram bucket without le");
      }
      BucketSeries& series = buckets[series_key];
      if (bound <= series.last_bound) {
        return fail("le bounds not increasing");
      }
      if (sample.value < series.last_value) {
        return fail("histogram buckets not cumulative");
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
