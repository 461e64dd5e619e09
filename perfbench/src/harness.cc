#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},
      {"query_p50_ms", "ms"},
      {"throughput_qps", "1/s"},
      {"index_bytes_frac", "frac"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      // End to end, but not gated: on session_warm the tail of ~30000
      // sub-millisecond queries swings 2x between runs of one seed. The
      // value comes from the untraced window.
      {"query_tail_ms", "ms"},
      {"net.requests", "count"},
      {"net.errors", "count"},
      {"net.overhead_p50_ms", "ms"},
      {"service.queue_wait_p50_ms", "ms"},
      {"service.queue_wait_tail_ms", "ms"},
      {"service.exec_p50_ms", "ms"},
      {"service.utilization", "frac"},
      {"service.preemptions", "count"},
      {"service.rejected", "count"},
      {"interactive_tail_ms", "ms"},
      {"nn.inputs_run", "count"},
      {"nn.batches_run", "count"},
      {"nn.busy_s", "s"},
      {"nn.busy_frac", "frac"},
      {"nn.batch_fill", "frac"},
      {"nn.shared_batches", "count"},
      {"nn.modeled_gpu_s", "s"},
      {"inputs_run_frac", "frac"},
      {"nta.rounds_per_query", "count"},
      {"nta.round_p50_ms", "ms"},
      {"nta.cpu_s", "s"},
      {"nta.cpu_frac", "frac"},
      {"nta.terminated_early_frac", "frac"},
      {"iqa.hit_ratio", "frac"},
      {"iqa.evictions", "count"},
      {"iqa.bytes", "bytes"},
      {"index.builds", "count"},
      {"index.build_inference_s", "s"},
      {"index.build_sort_s", "s"},
      {"index.persist_s", "s"},
      {"index.bytes", "bytes"},
      {"persist.applies", "count"},
      {"persist.apply_s", "s"},
      {"persist.snapshots", "count"},
      {"persist.snapshot_bytes", "bytes"},
      {"persist.rejected", "count"},
      {"storage.bytes_written", "bytes"},
      {"storage.bytes_read", "bytes"},
      {"storage.write_amp", "ratio"},
      {"ingest_ack_p50_ms", "ms"},
      {"ingest_ack_tail_ms", "ms"},
      {"index_lag_p50_ms", "ms"},
      {"ingest.late_max_ms", "ms"},
      {"ingest.late_tail_ms", "ms"},
      {"trace.overhead_frac", "frac"},
  };
  return kMetrics;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return 0.5 * (samples[mid - 1] + samples[mid]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double TraceOverheadFrac(double traced_qps, double untraced_qps) {
  return 1.0 - Ratio(traced_qps, untraced_qps);
}

TailStat TailPercentile(std::vector<double> samples) {
  TailStat tail;
  tail.samples = static_cast<int64_t>(samples.size());
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const int64_t n = tail.samples;
  if (n <= 10) {
    // No percentile has ten samples above it: report the maximum.
    tail.value = samples.back();
    tail.percentile = 100.0;
    return tail;
  }
  // samples[n-10 .. n-1] are the ten largest; the answer is the largest
  // sample strictly below the smallest of them (ties are stepped over, so
  // at least ten samples stay strictly above the reported value).
  const double floor_of_top = samples[static_cast<size_t>(n - 10)];
  int64_t idx = n - 11;
  while (idx >= 0 && samples[static_cast<size_t>(idx)] == floor_of_top) --idx;
  if (idx < 0) {
    tail.value = samples.front();
    tail.percentile = 100.0 / static_cast<double>(n);
    tail.beyond = n - 1;
    return tail;
  }
  tail.value = samples[static_cast<size_t>(idx)];
  tail.percentile = 100.0 * static_cast<double>(idx + 1) /
                    static_cast<double>(n);
  tail.beyond = n - 1 - idx;
  return tail;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void RunReport::SetTail(const std::string& name, const TailStat& tail) {
  Set(name, tail.value);
  char line[200];
  std::snprintf(line, sizeof(line),
                "%s = p%.4g of %lld samples (%lld beyond)", name.c_str(),
                tail.percentile, static_cast<long long>(tail.samples),
                static_cast<long long>(tail.beyond));
  Note(line);
}

void RunReport::Error(const std::string& message) {
  std::fprintf(stderr, "perfbench: ERROR: %s\n", message.c_str());
  errors.push_back(message);
}

const std::string& CodeIdentity() {
  static const std::string kIdentity = [] {
    // FNV-1a over the executable's bytes.
    uint64_t hash = 1469598103934665603ull;
    std::ifstream exe("/proc/self/exe", std::ios::binary);
    char buf[1 << 16];
    while (exe.read(buf, sizeof(buf)) || exe.gcount() > 0) {
      for (std::streamsize i = 0; i < exe.gcount(); ++i) {
        hash = (hash ^ static_cast<unsigned char>(buf[i])) * 1099511628211ull;
      }
    }
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(hash));
    return std::string(hex);
  }();
  return kIdentity;
}

void GuardCounters(const RunConfig& config, const RunReport& settings,
                   const std::map<std::string, double>& counters,
                   RunReport* report) {
  // The key covers everything that legitimately changes the counters: the
  // code, the workload, the seed, and every header setting.
  std::ostringstream fingerprint;
  fingerprint << "code="
              << (config.code_identity.empty() ? CodeIdentity()
                                               : config.code_identity)
              << "\n";
  for (const auto& [key, value] : settings.header) {
    // Counters are per pass: tracing and window length must not move them.
    if (key == "trace" || key == "seconds") continue;
    fingerprint << key << "=" << value << "\n";
  }
  const size_t key_hash = std::hash<std::string>()(fingerprint.str());
  char name[160];
  std::snprintf(name, sizeof(name), "%s-seed%llu-%016zx.txt",
                config.workload.c_str(),
                static_cast<unsigned long long>(config.seed), key_hash);
  const std::filesystem::path dir =
      std::filesystem::path(config.work_dir) / "guard";
  const std::filesystem::path path = dir / name;

  std::ostringstream current;
  for (const auto& [counter, value] : counters) {
    current << counter << " " << Exact(value) << "\n";
  }

  std::ifstream in(path);
  if (in.good()) {
    std::stringstream recorded;
    recorded << in.rdbuf();
    if (recorded.str() != current.str()) {
      report->Error("deterministic counters drifted from an earlier run with "
                    "the same seed and settings (" + path.string() +
                    "):\nrecorded:\n" + recorded.str() + "now:\n" +
                    current.str());
    }
    return;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp);
    out << current.str();
  }
  std::filesystem::rename(tmp, path, ec);
}

}  // namespace perfbench
