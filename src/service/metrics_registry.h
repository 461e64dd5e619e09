#ifndef DEEPEVEREST_SERVICE_METRICS_REGISTRY_H_
#define DEEPEVEREST_SERVICE_METRICS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace deepeverest {
namespace service {

/// \brief Builder for one Prometheus text-format scrape.
///
/// The served surface (net/serving_surface.h) renders /v1/metrics by
/// publishing every declared series into one emitter per scrape; the
/// emitter groups samples into metric families (one `# HELP`/`# TYPE`
/// header per family even when several models emit the same metric with
/// different labels) and renders the Prometheus text exposition format,
/// version 0.0.4.
class MetricsEmitter {
 public:
  using Labels = std::vector<std::pair<std::string, std::string>>;

  void Counter(const std::string& name, const std::string& help,
               const Labels& labels, double value);
  void Gauge(const std::string& name, const std::string& help,
             const Labels& labels, double value);
  /// One histogram series. `cumulative_buckets` are (upper_bound,
  /// cumulative_count) pairs in increasing bound order — already cumulative,
  /// as the text format requires; the `le="+Inf"` bucket (= `count`) and the
  /// `_sum`/`_count` series are appended automatically.
  void Histogram(const std::string& name, const std::string& help,
                 const Labels& labels,
                 const std::vector<std::pair<double, int64_t>>&
                     cumulative_buckets,
                 double sum, int64_t count);

  std::string Render() const;

 private:
  struct Family {
    std::string help;
    const char* type = "";
    std::vector<std::string> samples;  // fully rendered lines
  };

  Family* FamilyFor(const std::string& name, const std::string& help,
                    const char* type);
  void AddSample(Family* family, const std::string& name, const Labels& labels,
                 double value);

  std::vector<std::string> order_;  // family names in first-seen order
  std::map<std::string, Family> families_;
};

/// Validates `text` against the Prometheus text exposition format: sample
/// syntax and name/label charsets, a preceding `# TYPE` for every sample's
/// family, and per-series cumulative monotonicity + `+Inf` bucket for
/// histograms. Used by tests and the e2e client to regression-lock the
/// /v1/metrics output; returns the first violation found.
Status ValidatePrometheusText(const std::string& text);

}  // namespace service
}  // namespace deepeverest

#endif  // DEEPEVEREST_SERVICE_METRICS_REGISTRY_H_
