// Shared plumbing of the end-to-end benchmark: run configuration, the
// canonical metric lists, exact-sample statistics, and the run report that
// main() prints.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock.
double NowSeconds();

/// One run's settings, from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// true: the run also makes a traced window and reports per-layer metrics.
  bool trace = false;
  /// Directory (inside the checkout) for stores and the counter guard.
  std::string work_dir = ".bench_build/work";
  /// Tiny inputs for the smoke tests; never used for measurements.
  bool tiny = false;
  /// NowSeconds() at process start: the first setup repetition is timed
  /// from here.
  double start_seconds = 0.0;
  /// Identity of the code being measured, for the counter guard; empty
  /// means CodeIdentity(). Tests set it to stand for different builds.
  std::string code_identity;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The metrics printed with `--trace 0` / `--trace 1`, in output order.
/// BENCHMARK.json lists exactly these (the self-test checks it).
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// Median of an exact sample array (0 when empty).
double Median(std::vector<double> samples);

/// num / den, or 0 when den is not positive.
double Ratio(double num, double den);

/// trace.overhead_frac: the share of untraced throughput lost with tracing.
double TraceOverheadFrac(double traced_qps, double untraced_qps);

/// The highest percentile that still has at least ten samples strictly
/// above it, read from the exact sorted samples (no histogram).
struct TailStat {
  double value = 0.0;
  /// Nearest-rank percentile of `value`, in (0, 100].
  double percentile = 0.0;
  /// Samples strictly greater than `value` (>= 10 unless `samples` <= 10).
  int64_t beyond = 0;
  int64_t samples = 0;
};
TailStat TailPercentile(std::vector<double> samples);

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// What one workload run produced. Workloads fill `metrics` by name; main()
/// prints them in canonical order.
struct RunReport {
  /// Settings that make two runs comparable (or not); printed as the run
  /// header and folded into the counter-guard key.
  std::vector<std::pair<std::string, std::string>> header;
  std::map<std::string, double> metrics;
  /// Report-only lines (tail percentiles, sample counts, lateness, ...).
  std::vector<std::string> notes;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Correctness errors (mismatched answers, counter drift); any entry
  /// makes the run incorrect.
  std::vector<std::string> errors;

  void Header(const std::string& key, const std::string& value) {
    header.emplace_back(key, value);
  }
  void Set(const std::string& name, double value) { metrics[name] = value; }
  /// Records a tail metric and its percentile/sample-count note.
  void SetTail(const std::string& name, const TailStat& tail);
  void Note(const std::string& line) { notes.push_back(line); }
  void Error(const std::string& message);
  bool correct() const { return errors.empty() && failed == 0; }
};

/// A hash of this executable's bytes. The library is linked in statically,
/// so two builds of different code never share an identity.
const std::string& CodeIdentity();

/// Deterministic-counter guard. `counters` must repeat exactly across runs
/// of the same code with the same seed and settings; the first such run in
/// a work directory records them under `<work_dir>/guard/`, later runs
/// compare and report any drift as an error. Runs of different code
/// (config.code_identity, else CodeIdentity()) are never compared, so a
/// change that legitimately moves a counter is not reported as drift.
/// Within one run, callers compare passes themselves.
void GuardCounters(const RunConfig& config, const RunReport& settings,
                   const std::map<std::string, double>& counters,
                   RunReport* report);

/// "%.17g": every digit of a double.
std::string Exact(double value);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
