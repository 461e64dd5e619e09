// perfbench: the end-to-end benchmark of the DeepEverest reproduction.
//
//   perfbench --workload <session_cold|session_warm|serve_ingest>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--tiny]
//
// Prints a run header (the settings that make runs comparable), a readable
// report of every metric, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics for --trace 0 and the per-layer metrics for
// --trace 1. Exits 0 when the run completed (correct or not), 1 when the
// system could not be set up, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/json.h"
#include "kernels/kernels.h"
#include "harness.h"
#include "workloads.h"

namespace {

namespace de = deepeverest;
using perfbench::RunConfig;
using perfbench::RunReport;

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<session_cold|session_warm|serve_ingest> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] [--tiny]\n",
               message);
  return 2;
}

bool ParseArgs(int argc, char** argv, RunConfig* config) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      config->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config->workload = value;
    } else if (arg == "--seed") {
      config->seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return false;
    } else if (arg == "--seconds") {
      config->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(config->seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      config->trace = value[0] == '1';
    } else if (arg == "--work-dir") {
      config->work_dir = value;
    } else {
      return false;
    }
  }
  return !config->workload.empty();
}

void PrintHeader(const RunReport& report) {
  de::JsonWriter w;
  w.BeginObject();
  for (const auto& [key, value] : report.header) {
    w.Key(key);
    w.String(value);
  }
  w.EndObject();
  std::printf("header %s\n", w.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  config.start_seconds = perfbench::NowSeconds();
  if (!ParseArgs(argc, argv, &config)) return Usage("bad arguments");

  RunReport report;
  report.Header("workload", config.workload);
  report.Header("seed", std::to_string(config.seed));
  report.Header("seconds", perfbench::Exact(config.seconds));
  report.Header("trace", config.trace ? "1" : "0");
  report.Header("scale", config.tiny ? "tiny (smoke test only)" : "full");
  report.Header("kernel_dispatch", de::kernels::DispatchModeName(
                                       de::kernels::ActiveDispatchMode()));
  report.Header("wall_time_metrics",
                "every *_s, *_ms and *_qps metric except nn.modeled_gpu_s");
  report.Header("modeled_time_metrics",
                "nn.modeled_gpu_s only (GPU cost model; never added to wall "
                "time)");

  de::Status status;
  if (config.workload == "session_cold") {
    status = perfbench::RunSessionCold(config, &report);
  } else if (config.workload == "session_warm") {
    status = perfbench::RunSessionWarm(config, &report);
  } else if (config.workload == "serve_ingest") {
    status = perfbench::RunServeIngest(config, &report);
  } else {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", config.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }

  // Hashed after the run, so set-up time never includes it.
  report.Header("code_identity", perfbench::CodeIdentity());
  PrintHeader(report);
  for (const auto* list :
       {&perfbench::EndToEndMetrics(), &perfbench::PerLayerMetrics()}) {
    for (const perfbench::MetricDef& def : *list) {
      auto it = report.metrics.find(def.name);
      if (it == report.metrics.end()) continue;
      std::printf("  %-28s %16.6g %s\n", def.name, it->second, def.unit);
    }
  }
  for (const std::string& note : report.notes) std::printf("  # %s\n", note.c_str());
  std::printf("  # failed_frac = %lld / %lld\n",
              static_cast<long long>(report.failed),
              static_cast<long long>(report.attempted));

  const auto& wanted = config.trace ? perfbench::PerLayerMetrics()
                                    : perfbench::EndToEndMetrics();
  de::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(report.correct());
  w.Key("attempted");
  w.Int(std::max<int64_t>(report.attempted, 1));
  w.Key("failed");
  w.Int(report.failed);
  w.Key("metrics");
  w.BeginObject();
  for (const perfbench::MetricDef& def : wanted) {
    auto it = report.metrics.find(def.name);
    if (it == report.metrics.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", def.name);
      return 1;
    }
    w.Key(def.name);
    w.BeginObject();
    w.Key("value");
    w.Double(it->second);
    w.Key("unit");
    w.String(def.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
