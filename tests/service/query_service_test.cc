// Tests for the concurrent query service: result equivalence with
// sequential execution, admission backpressure, session fairness, and
// IQA accounting.
#include "service/query_service.h"

#include <gtest/gtest.h>

#include <future>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/deepeverest.h"
#include "service/engine_registry.h"
#include "service/metrics_registry.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace service {
namespace {

using core::DeepEverest;
using core::DeepEverestOptions;
using core::TopKResult;
using testing_util::TempDir;
using testing_util::TinySystem;

DeepEverestOptions EngineOptions(bool iqa = false) {
  DeepEverestOptions options;
  options.batch_size = 8;
  options.num_partitions_override = 4;
  options.mai_ratio_override = 0.1;
  options.enable_iqa = iqa;
  options.iqa_capacity_bytes = 1 << 24;
  return options;
}

/// Engine + store + workload fixture shared by the tests.
struct ServiceFixture {
  ServiceFixture(uint32_t num_inputs, uint64_t seed,
                 const DeepEverestOptions& options)
      : sys(num_inputs, seed, options.batch_size), dir("svc") {
    auto opened = storage::FileStore::Open(dir.path());
    EXPECT_TRUE(opened.ok());
    store = std::make_unique<storage::FileStore>(std::move(opened.value()));
    auto created =
        DeepEverest::Create(sys.model.get(), &sys.dataset, store.get(),
                            options);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    engine = std::move(created.value());
  }

  TinySystem sys;
  TempDir dir;
  std::unique_ptr<storage::FileStore> store;
  std::unique_ptr<DeepEverest> engine;
};

/// Runs one query directly on the engine through the same canonical
/// ExecuteSpec path the service uses (tie-complete NTA termination),
/// giving the canonical sequential reference: identical entries AND
/// identical per-query inference stats are expected from the service,
/// regardless of worker count or batching.
Result<TopKResult> RunCanonical(DeepEverest* engine,
                                const core::QuerySpec& query) {
  return engine->ExecuteSpec(query);
}

/// A deterministic mixed workload across three layers and several sessions.
std::vector<core::QuerySpec> MakeWorkload(const nn::Model& model, int count) {
  const std::vector<int>& layers = model.activation_layers();
  std::vector<core::QuerySpec> workload;
  workload.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    core::QuerySpec query;
    const int layer = layers[static_cast<size_t>(i) % layers.size()];
    query.layer = layer;
    query.neurons = {i % 4, (i % 4 + 2) % 8};
    query.k = 5 + i % 3;
    query.session_id = static_cast<uint64_t>(i % 5);
    if (i % 2 == 0) {
      query.kind = core::QuerySpec::Kind::kHighest;
    } else {
      query.kind = core::QuerySpec::Kind::kMostSimilar;
      query.target_id = static_cast<uint32_t>(i % 20);
    }
    workload.push_back(std::move(query));
  }
  return workload;
}

void ExpectSameEntries(const TopKResult& expected, const TopKResult& actual,
                       int query_index) {
  ASSERT_EQ(expected.entries.size(), actual.entries.size())
      << "query " << query_index;
  for (size_t i = 0; i < expected.entries.size(); ++i) {
    EXPECT_EQ(expected.entries[i].input_id, actual.entries[i].input_id)
        << "query " << query_index << " rank " << i;
    EXPECT_EQ(expected.entries[i].value, actual.entries[i].value)
        << "query " << query_index << " rank " << i;
  }
}

TEST(QueryServiceTest, CreateValidatesOptions) {
  ServiceFixture fix(30, 71, EngineOptions());
  QueryServiceOptions bad;
  bad.num_workers = 0;
  EXPECT_FALSE(QueryService::Create(fix.engine.get(), bad).ok());
  bad = QueryServiceOptions();
  bad.max_queue_depth = 0;
  EXPECT_FALSE(QueryService::Create(fix.engine.get(), bad).ok());
  EXPECT_FALSE(QueryService::Create(nullptr, QueryServiceOptions()).ok());
}

// A linger window must be a finite, non-negative number of seconds: NaN
// slips past a plain `< 0` check, and the scheduler would otherwise cast
// an infinite window to an integer nanosecond count.
TEST(QueryServiceTest, CreateRejectsNonFiniteLinger) {
  ServiceFixture fix(30, 72, EngineOptions());
  for (const double linger :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), -1e-3}) {
    QueryServiceOptions options;
    options.num_workers = 2;
    options.batch_linger_seconds = linger;
    Result<std::unique_ptr<QueryService>> service =
        QueryService::Create(fix.engine.get(), options);
    ASSERT_FALSE(service.ok()) << "linger " << linger;
    EXPECT_TRUE(service.status().IsInvalidArgument()) << "linger " << linger;
  }
  QueryServiceOptions options;
  options.num_workers = 2;
  options.batch_linger_seconds = 0.0;
  EXPECT_TRUE(QueryService::Create(fix.engine.get(), options).ok());
}

TEST(QueryServiceTest, SubmitValidatesQueries) {
  ServiceFixture fix(30, 72, EngineOptions());
  auto service =
      QueryService::Create(fix.engine.get(), QueryServiceOptions());
  ASSERT_TRUE(service.ok());
  core::QuerySpec query;  // empty neuron group
  query.k = 5;
  EXPECT_FALSE((*service)->Submit(query).ok());
  query.neurons = {0};
  query.k = 0;
  EXPECT_FALSE((*service)->Submit(query).ok());
  query.k = 5;
  query.theta = 1.5;
  EXPECT_FALSE((*service)->Submit(query).ok());
}

TEST(QueryServiceTest, OutOfRangeNeuronOnColdLayerFailsCleanly) {
  ServiceFixture fix(30, 70, EngineOptions());
  auto service =
      QueryService::Create(fix.engine.get(), QueryServiceOptions());
  ASSERT_TRUE(service.ok());
  // The layer is unindexed, so without up-front validation this query would
  // reach the §4.6 fresh-scan path and read the activation matrix out of
  // bounds; it must instead resolve to OutOfRange.
  core::QuerySpec query;
  query.layer = fix.sys.model->activation_layers()[0];
  query.neurons = {999999};
  query.k = 5;
  auto result = (*service)->Execute(query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

// The tentpole contract: N threads x M queries produce exactly the results
// sequential execution produces. Both engines are warm-started
// (PreprocessAllLayers), the serving deployment configuration: with indexes
// in place every query runs the NTA path, whose result is deterministic
// regardless of scheduling and cache state (ties break on input id).
TEST(QueryServiceTest, ConcurrentResultsMatchSequential) {
  // Sequential reference on its own engine (fresh store, fresh caches).
  ServiceFixture seq_fix(60, 73, EngineOptions(/*iqa=*/true));
  ASSERT_TRUE(seq_fix.engine->PreprocessAllLayers().ok());
  const std::vector<core::QuerySpec> workload =
      MakeWorkload(*seq_fix.sys.model, 40);
  std::vector<TopKResult> expected;
  for (const core::QuerySpec& query : workload) {
    auto result = RunCanonical(seq_fix.engine.get(), query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected.push_back(std::move(result.value()));
  }

  // Concurrent run on an identical engine behind the service.
  ServiceFixture fix(60, 73, EngineOptions(/*iqa=*/true));
  ASSERT_TRUE(fix.engine->PreprocessAllLayers().ok());
  QueryServiceOptions service_options;
  service_options.num_workers = 8;
  service_options.max_queue_depth = workload.size();
  auto service = QueryService::Create(fix.engine.get(), service_options);
  ASSERT_TRUE(service.ok());

  std::vector<std::future<Result<TopKResult>>> futures;
  for (const core::QuerySpec& query : workload) {
    auto submitted = (*service)->Submit(query);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted.value()));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<TopKResult> result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameEntries(expected[i], result.value(), static_cast<int>(i));
  }

  const ServiceStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.submitted, static_cast<int64_t>(workload.size()));
  EXPECT_EQ(stats.completed, static_cast<int64_t>(workload.size()));
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.queue_depth, 0u);
  ASSERT_TRUE(stats.iqa.has_value());
  EXPECT_EQ(stats.iqa->hits, fix.engine->iqa_cache()->stats().hits);
}

// Cold start: concurrent queries race on incremental index builds — the
// winner of a layer's build race answers from the fresh activation scan
// (§4.6) while the losers run NTA. With tie-complete termination (the
// service's execution mode) both paths resolve exact value ties at the
// top-k boundary identically, so even cold-start results are bit-identical
// to the canonical sequential run. (Before the tie-complete mode this test
// could only use a validity oracle.)
TEST(QueryServiceTest, ColdStartConcurrentResultsMatchCanonical) {
  ServiceFixture seq_fix(60, 79, EngineOptions(/*iqa=*/true));
  const std::vector<core::QuerySpec> workload =
      MakeWorkload(*seq_fix.sys.model, 24);
  std::vector<TopKResult> expected;
  for (const core::QuerySpec& query : workload) {
    auto result = RunCanonical(seq_fix.engine.get(), query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected.push_back(std::move(result.value()));
  }

  ServiceFixture fix(60, 79, EngineOptions(/*iqa=*/true));
  QueryServiceOptions service_options;
  service_options.num_workers = 8;
  service_options.max_queue_depth = workload.size();
  auto service = QueryService::Create(fix.engine.get(), service_options);
  ASSERT_TRUE(service.ok());
  std::vector<std::future<Result<TopKResult>>> futures;
  for (const core::QuerySpec& query : workload) {
    auto submitted = (*service)->Submit(query);
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted.value()));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<TopKResult> result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameEntries(expected[i], result.value(), static_cast<int>(i));
  }
}

TEST(QueryServiceTest, BoundedQueueRejectsWithBackpressure) {
  ServiceFixture fix(40, 74, EngineOptions());
  QueryServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.max_queue_depth = 4;
  auto service = QueryService::Create(fix.engine.get(), service_options);
  ASSERT_TRUE(service.ok());

  const int layer = fix.sys.model->activation_layers()[0];
  core::QuerySpec query;
  query.layer = layer;
  query.neurons = {0, 1};
  query.k = 5;

  // Flood far beyond worker + queue capacity; some must be rejected with
  // ResourceExhausted and the rest must all complete.
  std::vector<std::future<Result<TopKResult>>> futures;
  int rejected = 0;
  for (int i = 0; i < 200; ++i) {
    auto submitted = (*service)->Submit(query);
    if (submitted.ok()) {
      futures.push_back(std::move(submitted.value()));
    } else {
      EXPECT_EQ(submitted.status().code(), StatusCode::kResourceExhausted)
          << submitted.status().ToString();
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  for (auto& future : futures) {
    auto result = future.get();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  const ServiceStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.rejected_queue_full, rejected);
  EXPECT_EQ(stats.completed, static_cast<int64_t>(futures.size()));
}

TEST(QueryServiceTest, PerSessionLimitKeepsOtherSessionsAdmitted) {
  ServiceFixture fix(40, 75, EngineOptions());
  QueryServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.max_queue_depth = 64;
  service_options.max_queued_per_session = 2;
  auto service = QueryService::Create(fix.engine.get(), service_options);
  ASSERT_TRUE(service.ok());

  const int layer = fix.sys.model->activation_layers()[0];
  core::QuerySpec query;
  query.layer = layer;
  query.neurons = {0, 1};
  query.k = 5;

  // One bulk session hammers; a second session must still get in.
  std::vector<std::future<Result<TopKResult>>> futures;
  int session_rejected = 0;
  for (int i = 0; i < 32; ++i) {
    query.session_id = 1;
    auto submitted = (*service)->Submit(query);
    if (submitted.ok()) {
      futures.push_back(std::move(submitted.value()));
    } else {
      EXPECT_EQ(submitted.status().code(), StatusCode::kResourceExhausted);
      ++session_rejected;
    }
  }
  EXPECT_GT(session_rejected, 0);  // the bulk session hit its bound

  query.session_id = 2;
  auto other = (*service)->Submit(query);
  EXPECT_TRUE(other.ok()) << other.status().ToString();

  for (auto& future : futures) EXPECT_TRUE(future.get().ok());
  EXPECT_TRUE(other->get().ok());
  EXPECT_EQ((*service)->Snapshot().rejected_session_limit, session_rejected);
}

// With ample capacity the service's IQA hit counter equals the sequential
// engine's: running behind the service must not change what the IQA cache
// can serve.
TEST(QueryServiceTest, ServiceIqaHitsMatchSequentialHitCount) {
  const int kQueries = 36;

  // Sequential run in the service's execution mode, so the evaluation (and
  // therefore cache hit) pattern is identical.
  ServiceFixture seq_fix(50, 76, EngineOptions(/*iqa=*/true));
  const std::vector<core::QuerySpec> workload =
      MakeWorkload(*seq_fix.sys.model, kQueries);
  for (const core::QuerySpec& query : workload) {
    ASSERT_TRUE(RunCanonical(seq_fix.engine.get(), query).ok());
  }
  const auto seq_stats = seq_fix.engine->iqa_cache()->stats();
  ASSERT_GT(seq_stats.hits, 0);

  // Same workload, same engine config, submitted through the service one at
  // a time.
  ServiceFixture fix(50, 76, EngineOptions(/*iqa=*/true));
  QueryServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.max_queue_depth = 64;
  auto service = QueryService::Create(fix.engine.get(), service_options);
  ASSERT_TRUE(service.ok());
  for (const core::QuerySpec& query : workload) {
    ASSERT_TRUE((*service)->Execute(query).ok());
  }

  const ServiceStats stats = (*service)->Snapshot();
  ASSERT_TRUE(stats.iqa.has_value());
  EXPECT_EQ(stats.iqa->hits, seq_stats.hits);
  EXPECT_EQ(stats.iqa->hits, fix.engine->iqa_cache()->stats().hits);
}

// /v1/metrics publishes one engine's IQA cache as five deepeverest_iqa_*
// series, the capacity gauge at the configured capacity; an engine without
// IQA publishes none.
TEST(QueryServiceTest, IqaMetricsFollowTheCacheOrAreAbsent) {
  ServiceFixture with_iqa(40, 82, EngineOptions(/*iqa=*/true));
  ServiceFixture without_iqa(40, 82, EngineOptions());
  QueryServiceOptions service_options;
  service_options.num_workers = 1;
  auto cached = QueryService::Create(with_iqa.engine.get(), service_options);
  auto plain = QueryService::Create(without_iqa.engine.get(), service_options);
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(plain.ok());
  for (const core::QuerySpec& query : MakeWorkload(*with_iqa.sys.model, 6)) {
    ASSERT_TRUE((*cached)->Execute(query).ok());
  }
  EngineRegistry models;
  ASSERT_TRUE(models.Register("cached", cached->get()).ok());
  ASSERT_TRUE(models.Register("plain", plain->get()).ok());
  MetricsRegistry metrics;
  RegisterServiceMetrics(&metrics, &models);
  const std::string text = metrics.RenderPrometheusText();
  ASSERT_TRUE(ValidatePrometheusText(text).ok());

  const core::IqaCache::Stats iqa = with_iqa.engine->iqa_cache()->stats();
  EXPECT_GT(iqa.insertions, 0);
  const std::pair<const char*, int64_t> series[] = {
      {"deepeverest_iqa_hits_total", iqa.hits},
      {"deepeverest_iqa_misses_total", iqa.misses},
      {"deepeverest_iqa_evictions_total", iqa.evictions},
      {"deepeverest_iqa_cache_bytes", static_cast<int64_t>(iqa.size_bytes)},
      {"deepeverest_iqa_cache_capacity_bytes", int64_t{1} << 24}};
  for (const auto& [name, value] : series) {
    EXPECT_NE(text.find(std::string(name) + "{model=\"cached\"} " +
                        std::to_string(value) + "\n"),
              std::string::npos)
        << name;
  }
  // Those five are every IQA sample: "plain" publishes none.
  size_t iqa_samples = 0;
  for (size_t at = text.find("\ndeepeverest_iqa_"); at != std::string::npos;
       at = text.find("\ndeepeverest_iqa_", at + 1)) {
    ++iqa_samples;
  }
  EXPECT_EQ(iqa_samples, 5u);
}

TEST(QueryServiceTest, DrainWaitsAndShutdownCancelsQueued) {
  ServiceFixture fix(40, 77, EngineOptions());
  QueryServiceOptions service_options;
  service_options.num_workers = 2;
  service_options.max_queue_depth = 64;
  auto service = QueryService::Create(fix.engine.get(), service_options);
  ASSERT_TRUE(service.ok());

  const int layer = fix.sys.model->activation_layers()[0];
  core::QuerySpec query;
  query.layer = layer;
  query.neurons = {0, 1};
  query.k = 5;
  std::vector<std::future<Result<TopKResult>>> futures;
  for (int i = 0; i < 12; ++i) {
    auto submitted = (*service)->Submit(query);
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted.value()));
  }
  (*service)->Drain();
  const ServiceStats drained = (*service)->Snapshot();
  EXPECT_EQ(drained.queue_depth, 0u);
  EXPECT_EQ(drained.inflight, 0u);
  EXPECT_EQ(drained.completed, 12);
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());

  (*service)->Shutdown();
  EXPECT_FALSE((*service)->Submit(query).ok());  // admission closed
}

// The attribution contract: under 8 concurrent sessions with cross-query
// batching enabled, every query's entries AND its `inputs_run` equal the
// canonical sequential run exactly. The old before/after stats() delta
// failed this (it absorbed other threads' inference); receipts cannot.
TEST(QueryServiceTest, BatchingKeepsResultsAndAttributionExact) {
  // Canonical reference on a warm engine, no IQA (cache state would make
  // per-query inputs_run schedule-dependent, which is not an attribution
  // question).
  ServiceFixture seq_fix(60, 80, EngineOptions());
  ASSERT_TRUE(seq_fix.engine->PreprocessAllLayers().ok());
  std::vector<core::QuerySpec> workload = MakeWorkload(*seq_fix.sys.model, 40);
  for (size_t i = 0; i < workload.size(); ++i) {
    workload[i].session_id = static_cast<uint64_t>(i % 8);  // 8 sessions
  }
  std::vector<TopKResult> expected;
  for (const core::QuerySpec& query : workload) {
    auto result = RunCanonical(seq_fix.engine.get(), query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected.push_back(std::move(result.value()));
  }

  ServiceFixture fix(60, 80, EngineOptions());
  ASSERT_TRUE(fix.engine->PreprocessAllLayers().ok());
  QueryServiceOptions service_options;
  service_options.num_workers = 8;
  service_options.max_queue_depth = workload.size();
  service_options.enable_cross_query_batching = true;
  // A generous linger so concurrent queries reliably co-schedule.
  service_options.batch_linger_seconds = 0.005;
  auto service = QueryService::Create(fix.engine.get(), service_options);
  ASSERT_TRUE(service.ok());

  std::vector<std::future<Result<TopKResult>>> futures;
  for (const core::QuerySpec& query : workload) {
    auto submitted = (*service)->Submit(query);
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted.value()));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<TopKResult> result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameEntries(expected[i], result.value(), static_cast<int>(i));
    EXPECT_EQ(expected[i].stats.inputs_run, result->stats.inputs_run)
        << "query " << i << ": per-query attribution must be exact";
  }

  const ServiceStats stats = (*service)->Snapshot();
  EXPECT_TRUE(stats.batching_enabled);
  EXPECT_GT(stats.batch_size, 0);
  EXPECT_GT(stats.batching.requests, 0);
  EXPECT_GT(stats.batching.batches_dispatched, 0);
  EXPECT_EQ(stats.batching.inputs_enqueued, stats.batching.inputs_dispatched);
}

// Coalescing must actually happen: with 8 workers co-scheduling queries
// into shared device batches, the total number of launched batches is
// strictly below what the same workload pays when every query dispatches
// alone (the unbatched service), at bit-identical results.
TEST(QueryServiceTest, BatchingCoalescesAcrossQueries) {
  std::vector<core::QuerySpec> workload;
  auto run_total_batches = [&workload](bool batching, double* total_batches,
                                       int64_t* dispatched,
                                       std::vector<TopKResult>* results) {
    ServiceFixture fix(60, 81, EngineOptions());
    ASSERT_TRUE(fix.engine->PreprocessAllLayers().ok());
    if (workload.empty()) workload = MakeWorkload(*fix.sys.model, 32);
    QueryServiceOptions service_options;
    service_options.num_workers = 8;
    service_options.max_queue_depth = workload.size();
    service_options.enable_cross_query_batching = batching;
    service_options.batch_linger_seconds = 0.005;
    auto service = QueryService::Create(fix.engine.get(), service_options);
    ASSERT_TRUE(service.ok());
    std::vector<std::future<Result<TopKResult>>> futures;
    for (const core::QuerySpec& query : workload) {
      auto submitted = (*service)->Submit(query);
      ASSERT_TRUE(submitted.ok());
      futures.push_back(std::move(submitted.value()));
    }
    *total_batches = 0.0;
    for (auto& future : futures) {
      Result<TopKResult> result = future.get();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      *total_batches += result->stats.batches_run;
      results->push_back(std::move(result.value()));
    }
    const ServiceStats stats = (*service)->Snapshot();
    *dispatched = stats.batching_enabled
                      ? stats.batching.batches_dispatched
                      : int64_t{0};
    if (batching) {
      EXPECT_GT(stats.batching.shared_batches, 0)
          << "8 workers over shared layers should have merged batches";
      // Fractional shares are conserved: summed over queries they equal the
      // number of physical launches.
      EXPECT_NEAR(*total_batches,
                  static_cast<double>(stats.batching.batches_dispatched),
                  1e-6);
    }
  };

  double solo_batches = 0.0, shared_batches = 0.0;
  int64_t solo_dispatched = 0, shared_dispatched = 0;
  std::vector<TopKResult> solo_results, shared_results;
  run_total_batches(false, &solo_batches, &solo_dispatched, &solo_results);
  run_total_batches(true, &shared_batches, &shared_dispatched,
                    &shared_results);

  EXPECT_LT(shared_batches, solo_batches)
      << "shared batches_run must be strictly below the sum of solo runs";
  ASSERT_EQ(solo_results.size(), shared_results.size());
  for (size_t i = 0; i < solo_results.size(); ++i) {
    ExpectSameEntries(solo_results[i], shared_results[i],
                      static_cast<int>(i));
    EXPECT_EQ(solo_results[i].stats.inputs_run,
              shared_results[i].stats.inputs_run);
  }
}

TEST(QueryServiceTest, LatencyPercentilesAreRecorded) {
  ServiceFixture fix(40, 78, EngineOptions());
  auto service =
      QueryService::Create(fix.engine.get(), QueryServiceOptions());
  ASSERT_TRUE(service.ok());
  const int layer = fix.sys.model->activation_layers()[0];
  core::QuerySpec query;
  query.layer = layer;
  query.neurons = {0, 1, 2};
  query.k = 5;
  for (int i = 0; i < 8; ++i) ASSERT_TRUE((*service)->Execute(query).ok());
  const ServiceStats stats = (*service)->Snapshot();
  EXPECT_GT(stats.p50_latency_seconds, 0.0);
  EXPECT_GE(stats.p99_latency_seconds, stats.p50_latency_seconds);
  EXPECT_GT(stats.worker_busy_seconds, 0.0);
  EXPECT_GT(stats.worker_utilization, 0.0);
}

}  // namespace
}  // namespace service
}  // namespace deepeverest
