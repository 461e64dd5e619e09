// MetricsEmitter: family grouping (one HELP/TYPE per family across many
// labelled series), histogram rendering (+Inf bucket, _sum, _count), label
// escaping, and the exposition-format validator both accepting our output
// and rejecting malformed text.
#include "service/metrics_registry.h"

#include <gtest/gtest.h>

#include <string>

namespace deepeverest {
namespace service {
namespace {

TEST(MetricsEmitterTest, CounterAndGaugeRender) {
  MetricsEmitter emitter;
  emitter.Counter("requests_total", "Requests seen.", {{"model", "demo"}},
                  42.0);
  emitter.Gauge("queue_depth", "Queued work.", {}, 3.0);
  const std::string text = emitter.Render();
  EXPECT_NE(text.find("# HELP requests_total Requests seen.\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE requests_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("requests_total{model=\"demo\"} 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("queue_depth 3\n"), std::string::npos);
  EXPECT_TRUE(ValidatePrometheusText(text).ok());
}

TEST(MetricsEmitterTest, OneHeaderPerFamilyAcrossLabelledSeries) {
  MetricsEmitter emitter;
  emitter.Counter("queries_total", "Queries.", {{"model", "a"}}, 1.0);
  emitter.Counter("queries_total", "Queries.", {{"model", "b"}}, 2.0);
  const std::string text = emitter.Render();
  size_t first = text.find("# TYPE queries_total");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE queries_total", first + 1), std::string::npos);
  // Both series render, adjacent under the one header.
  EXPECT_NE(text.find("queries_total{model=\"a\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("queries_total{model=\"b\"} 2\n"), std::string::npos);
  EXPECT_TRUE(ValidatePrometheusText(text).ok());
}

TEST(MetricsEmitterTest, HistogramGetsInfBucketSumAndCount) {
  MetricsEmitter emitter;
  emitter.Histogram("latency_seconds", "Latency.", {{"class", "interactive"}},
                    {{0.1, 3}, {1.0, 5}}, 1.75, 6);
  const std::string text = emitter.Render();
  EXPECT_NE(text.find("# TYPE latency_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("latency_seconds_bucket{class=\"interactive\",le=\"0.1\"} 3"),
      std::string::npos);
  EXPECT_NE(
      text.find("latency_seconds_bucket{class=\"interactive\",le=\"1\"} 5"),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "latency_seconds_bucket{class=\"interactive\",le=\"+Inf\"} 6"),
      std::string::npos);
  EXPECT_NE(text.find("latency_seconds_sum{class=\"interactive\"} 1.75"),
            std::string::npos);
  EXPECT_NE(text.find("latency_seconds_count{class=\"interactive\"} 6"),
            std::string::npos);
  EXPECT_TRUE(ValidatePrometheusText(text).ok());
}

TEST(MetricsEmitterTest, LabelValuesAreEscaped) {
  MetricsEmitter emitter;
  emitter.Gauge("build_info", "Build.", {{"flags", "a\\b \"q\"\nend"}}, 1.0);
  const std::string text = emitter.Render();
  EXPECT_NE(text.find("build_info{flags=\"a\\\\b \\\"q\\\"\\nend\"} 1\n"),
            std::string::npos);
  EXPECT_TRUE(ValidatePrometheusText(text).ok());
}

TEST(ValidatePrometheusTextTest, RejectsMalformedExpositions) {
  // Sample before its TYPE header.
  EXPECT_FALSE(ValidatePrometheusText("orphan_total 1\n").ok());
  // Missing trailing newline.
  EXPECT_FALSE(
      ValidatePrometheusText("# TYPE a counter\na 1").ok());
  // Bad metric name (leading digit).
  EXPECT_FALSE(
      ValidatePrometheusText("# TYPE 9bad counter\n9bad 1\n").ok());
  // Unterminated label value.
  EXPECT_FALSE(
      ValidatePrometheusText("# TYPE a counter\na{l=\"x} 1\n").ok());
  // Non-numeric value.
  EXPECT_FALSE(
      ValidatePrometheusText("# TYPE a counter\na twelve\n").ok());
  // Histogram without a +Inf bucket.
  EXPECT_FALSE(ValidatePrometheusText("# TYPE h histogram\n"
                                      "h_bucket{le=\"1\"} 2\n"
                                      "h_sum 1\nh_count 2\n")
                   .ok());
  // Histogram buckets that shrink (not cumulative).
  EXPECT_FALSE(ValidatePrometheusText("# TYPE h histogram\n"
                                      "h_bucket{le=\"1\"} 5\n"
                                      "h_bucket{le=\"2\"} 3\n"
                                      "h_bucket{le=\"+Inf\"} 5\n")
                   .ok());
  // _count disagreeing with the +Inf bucket.
  EXPECT_FALSE(ValidatePrometheusText("# TYPE h histogram\n"
                                      "h_bucket{le=\"+Inf\"} 5\n"
                                      "h_count 7\n")
                   .ok());
  // Duplicate TYPE for one family.
  EXPECT_FALSE(ValidatePrometheusText("# TYPE a counter\n"
                                      "# TYPE a counter\na 1\n")
                   .ok());
}

TEST(ValidatePrometheusTextTest, AcceptsWellFormedHistogramSeries) {
  const std::string text =
      "# HELP h Latency.\n"
      "# TYPE h histogram\n"
      "h_bucket{model=\"a\",le=\"0.5\"} 1\n"
      "h_bucket{model=\"a\",le=\"+Inf\"} 4\n"
      "h_sum{model=\"a\"} 2.5\n"
      "h_count{model=\"a\"} 4\n"
      "h_bucket{model=\"b\",le=\"0.5\"} 7\n"
      "h_bucket{model=\"b\",le=\"+Inf\"} 7\n"
      "h_sum{model=\"b\"} 1.1\n"
      "h_count{model=\"b\"} 7\n";
  EXPECT_TRUE(ValidatePrometheusText(text).ok())
      << ValidatePrometheusText(text).ToString();
}

}  // namespace
}  // namespace service
}  // namespace deepeverest
