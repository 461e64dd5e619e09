// Tests of the benchmark itself:
//  - the tail-percentile helper picks the highest percentile that still has
//    at least ten samples beyond it;
//  - the verifier accepts the engine's real answers and rejects injected
//    wrong ones;
//  - BENCHMARK.json lists exactly the metrics the benchmark prints;
//  - the counter guard compares runs of the same code only;
//  - a tiny-scale smoke run of every workload, untraced and traced, is
//    correct and measures every metric (the second run of a seed also
//    exercises the deterministic-counter guard).
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "core/deepeverest.h"
#include "harness.h"
#include "nn/model_zoo.h"
#include "storage/file_store.h"
#include "verify.h"
#include "workloads.h"

namespace {

namespace de = deepeverest;
using perfbench::TailPercentile;

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

std::vector<double> Range(int lo, int hi) {
  std::vector<double> v;
  for (int i = lo; i <= hi; ++i) v.push_back(i);
  return v;
}

void TestTailPercentile() {
  // 100 samples 1..100: p90 (value 90) has exactly ten above it; p91 would
  // have nine.
  std::vector<double> hundred = Range(1, 100);
  de::Rng rng(3);
  rng.Shuffle(&hundred);
  perfbench::TailStat tail = TailPercentile(hundred);
  EXPECT(tail.value == 90.0);
  EXPECT(tail.beyond == 10);
  EXPECT(tail.samples == 100);
  EXPECT(std::fabs(tail.percentile - 90.0) < 1e-9);

  // 1000 samples: p99.
  tail = TailPercentile(Range(1, 1000));
  EXPECT(tail.value == 990.0);
  EXPECT(std::fabs(tail.percentile - 99.0) < 1e-9);

  // Ties at the boundary: 80 distinct values then twenty equal maxima. No
  // value above 80 has ten samples strictly beyond it, so the answer is 80.
  std::vector<double> tied = Range(1, 80);
  for (int i = 0; i < 20; ++i) tied.push_back(500.0);
  tail = TailPercentile(tied);
  EXPECT(tail.value == 80.0);
  EXPECT(tail.beyond == 20);

  // Eleven samples: the smallest has exactly ten above it.
  tail = TailPercentile(Range(1, 11));
  EXPECT(tail.value == 1.0);
  EXPECT(tail.beyond == 10);

  // Ten or fewer: no percentile qualifies; the maximum is reported.
  tail = TailPercentile(Range(1, 10));
  EXPECT(tail.value == 10.0);
  EXPECT(tail.beyond == 0);
  EXPECT(TailPercentile({}).samples == 0);
}

void TestVerifier() {
  auto model = de::nn::MakeTinyMlp(8, 11);
  de::data::Dataset dataset("verifier-test", de::Shape({8}));
  de::Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    de::Tensor input(de::Shape({8}));
    for (int d = 0; d < 8; ++d) input[d] = static_cast<float>(rng.NextGaussian());
    dataset.Add(std::move(input), i % 4);
  }
  const std::string dir = "perfbench_selftest_work/verifier";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  auto store = de::storage::FileStore::Open(dir);
  EXPECT(store.ok());
  if (!store.ok()) return;
  auto engine =
      de::core::DeepEverest::Create(model.get(), &dataset, &*store, {});
  EXPECT(engine.ok());
  if (!engine.ok()) return;

  const int layer = model->activation_layers()[1];
  std::vector<de::core::QuerySpec> plan(2);
  plan[0].kind = de::core::QuerySpec::Kind::kHighest;
  plan[0].layer = layer;
  plan[0].neurons = {1, 4, 7};
  plan[0].k = 10;
  plan[1].kind = de::core::QuerySpec::Kind::kMostSimilar;
  plan[1].layer = layer;
  plan[1].neurons = {0, 2};
  plan[1].target_id = 17;
  plan[1].k = 10;

  std::vector<perfbench::Answer> answers;
  for (uint32_t i = 0; i < plan.size(); ++i) {
    // Twice: the first builds the index (§4.6 scan), the second runs NTA.
    for (int rep = 0; rep < 2; ++rep) {
      auto result = (*engine)->ExecuteSpec(plan[i]);
      EXPECT(result.ok());
      if (!result.ok()) return;
      answers.push_back({i, result->stats.dataset_version, result->entries});
    }
  }
  auto verifier = perfbench::Verifier::Build(model.get(), &dataset,
                                             {layer}, 16);
  EXPECT(verifier.ok());
  if (!verifier.ok()) return;
  std::vector<std::string> errors;
  EXPECT(verifier->CheckAll(plan, answers, &errors) == 0);
  EXPECT(errors.empty());

  auto rejects = [&](perfbench::Answer wrong) {
    std::string why;
    const bool accepted = verifier->Check(plan[wrong.spec], wrong, &why);
    return !accepted && !why.empty();
  };
  perfbench::Answer base = answers[1];
  perfbench::Answer wrong = base;
  wrong.entries[3].input_id ^= 1;  // a different input
  EXPECT(rejects(wrong));
  wrong = base;
  wrong.entries[0].value = std::nextafter(wrong.entries[0].value, 1e300);
  EXPECT(rejects(wrong));  // one ulp off
  wrong = base;
  wrong.entries.pop_back();
  EXPECT(rejects(wrong));  // a missing entry
  wrong = base;
  std::swap(wrong.entries[0], wrong.entries[1]);
  EXPECT(rejects(wrong));  // wrong order
  wrong = base;
  wrong.dataset_version = 301;
  EXPECT(rejects(wrong));  // a version beyond the dataset
  wrong = answers[3];
  wrong.spec = 0;  // the most-similar answer offered for the highest query
  EXPECT(rejects(wrong));

  errors.clear();
  std::vector<perfbench::Answer> mixed = answers;
  mixed[2].entries[5].input_id += 1;
  EXPECT(verifier->CheckAll(plan, mixed, &errors) == 1);
  EXPECT(errors.size() == 1);

  engine->reset();
  std::filesystem::remove_all(dir, ec);
}

void TestMetricListsMatchBenchmarkJson() {
  std::ifstream in(PERFBENCH_JSON);
  EXPECT(in.good());
  if (!in.good()) return;
  std::stringstream text;
  text << in.rdbuf();
  auto parsed = de::ParseJson(text.str());
  EXPECT(parsed.ok());
  if (!parsed.ok()) return;
  auto same = [&](const char* key,
                  const std::vector<perfbench::MetricDef>& defs) {
    const de::JsonValue* list = parsed->Find(key);
    if (list == nullptr || !list->is_array() ||
        list->array_items().size() != defs.size()) {
      return false;
    }
    for (size_t i = 0; i < defs.size(); ++i) {
      const de::JsonValue& item = list->array_items()[i];
      const de::JsonValue* name = item.Find("name");
      const de::JsonValue* unit = item.Find("unit");
      if (name == nullptr || unit == nullptr ||
          name->string_value() != defs[i].name ||
          unit->string_value() != defs[i].unit) {
        return false;
      }
    }
    return true;
  };
  EXPECT(same("end_to_end", perfbench::EndToEndMetrics()));
  EXPECT(same("per_layer", perfbench::PerLayerMetrics()));
}

void TestGuardComparesOnlySameCode() {
  perfbench::RunConfig config;
  config.workload = "guard_test";
  config.seed = 9;
  config.work_dir = "perfbench_selftest_work/guard_test";
  perfbench::RunReport settings;
  settings.Header("dataset_inputs", "100");
  const std::map<std::string, double> before = {{"nn.batches_run", 12.0}};
  const std::map<std::string, double> after = {{"nn.batches_run", 9.0}};
  auto errors_after = [&](const std::string& code,
                          const std::map<std::string, double>& counters) {
    config.code_identity = code;
    perfbench::RunReport report;
    perfbench::GuardCounters(config, settings, counters, &report);
    return report.errors.size();
  };
  EXPECT(errors_after("parent-build", before) == 0);  // recorded
  EXPECT(errors_after("parent-build", before) == 0);  // repeats
  // Another build moved the counter on purpose: not compared, no drift.
  EXPECT(errors_after("change-build", after) == 0);
  EXPECT(errors_after("change-build", after) == 0);
  // The same build drifting is still an error.
  EXPECT(errors_after("parent-build", after) == 1);
  EXPECT(errors_after("change-build", before) == 1);
  // A different seed is a different record.
  config.seed = 10;
  EXPECT(errors_after("parent-build", after) == 0);
  EXPECT(!perfbench::CodeIdentity().empty());
}

void SmokeRun(const std::string& workload, bool trace) {
  perfbench::RunConfig config;
  config.workload = workload;
  config.seed = 4;
  config.seconds = 0.3;
  config.trace = trace;
  config.tiny = true;
  config.work_dir = "perfbench_selftest_work";
  config.start_seconds = perfbench::NowSeconds();
  perfbench::RunReport report;
  report.Header("workload", workload);
  report.Header("scale", "tiny");
  de::Status status;
  if (workload == "session_cold") {
    status = perfbench::RunSessionCold(config, &report);
  } else if (workload == "session_warm") {
    status = perfbench::RunSessionWarm(config, &report);
  } else {
    status = perfbench::RunServeIngest(config, &report);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", workload.c_str(),
                 status.ToString().c_str());
  }
  EXPECT(status.ok());
  EXPECT(report.correct());
  EXPECT(report.attempted > 0);
  const auto& wanted = trace ? perfbench::PerLayerMetrics()
                             : perfbench::EndToEndMetrics();
  for (const perfbench::MetricDef& def : wanted) {
    auto it = report.metrics.find(def.name);
    const bool measured =
        it != report.metrics.end() && std::isfinite(it->second);
    if (!measured) std::fprintf(stderr, "%s: no %s\n", workload.c_str(), def.name);
    EXPECT(measured);
  }
  EXPECT(report.metrics["throughput_qps"] > 0.0);
  EXPECT(report.metrics["setup_s"] > 0.0);
}

}  // namespace

int main() {
  TestTailPercentile();
  TestVerifier();
  TestMetricListsMatchBenchmarkJson();
  TestGuardComparesOnlySameCode();
  for (const char* workload : {"session_cold", "session_warm", "serve_ingest"}) {
    SmokeRun(workload, /*trace=*/false);
    SmokeRun(workload, /*trace=*/true);
  }
  std::error_code ec;
  std::filesystem::remove_all("perfbench_selftest_work", ec);
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
