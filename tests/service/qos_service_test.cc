// QoS behaviour of the QueryService: strict class priority at dispatch,
// EDF within a class, weighted round-robin across sessions, deadline
// enforcement (queued-past-deadline rejection, in-flight cooperative
// abort), split completion counters, and Submit racing Drain()/Shutdown()
// with mixed classes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "core/deepeverest.h"
#include "service/query_service.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace service {
namespace {

using core::DeepEverest;
using core::DeepEverestOptions;
using core::TopKResult;
using testing_util::TempDir;
using testing_util::TinySystem;

DeepEverestOptions EngineOptions() {
  DeepEverestOptions options;
  options.batch_size = 8;
  options.num_partitions_override = 4;
  options.mai_ratio_override = 0.1;
  return options;
}

struct QosFixture {
  QosFixture(uint32_t num_inputs, uint64_t seed)
      : sys(num_inputs, seed, 8), dir("qos_svc") {
    auto opened = storage::FileStore::Open(dir.path());
    EXPECT_TRUE(opened.ok());
    store = std::make_unique<storage::FileStore>(std::move(opened.value()));
    auto created = DeepEverest::Create(sys.model.get(), &sys.dataset,
                                       store.get(), EngineOptions());
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    engine = std::move(created.value());
  }

  /// Warm every index, then turn each device batch into `launch_seconds` of
  /// real blocking time — queries become slow enough that dispatch order is
  /// observable through their queue waits.
  void MakeQueriesSlow(double launch_seconds) {
    ASSERT_TRUE(engine->PreprocessAllLayers().ok());
    engine->inference()->mutable_cost_model()->launch_overhead_seconds =
        launch_seconds;
    engine->inference()->set_simulate_device_latency(true);
  }

  /// `deadline_seconds` converts to the spec's deadline_ms; 0 keeps the
  /// spec's no-deadline default.
  core::QuerySpec MakeQuery(uint64_t session, QosClass qos,
                            double deadline_seconds = 0.0,
                            int weight = 1) const {
    core::QuerySpec query;
    query.layer = sys.model->activation_layers()[0];
    query.neurons = {0, 1};
    query.k = 5;
    query.session_id = session;
    query.qos = qos;
    if (deadline_seconds > 0.0) query.deadline_ms = deadline_seconds * 1e3;
    query.weight = weight;
    return query;
  }

  TinySystem sys;
  TempDir dir;
  std::unique_ptr<storage::FileStore> store;
  std::unique_ptr<DeepEverest> engine;
};

using Future = std::future<Result<TopKResult>>;

Future MustSubmit(QueryService* service, core::QuerySpec query) {
  auto submitted = service->Submit(std::move(query));
  EXPECT_TRUE(submitted.ok()) << submitted.status().ToString();
  return std::move(submitted.value());
}

/// The ordering tests park a blocker query on the single worker and then
/// queue contenders behind it; the blocker must actually be *in flight*
/// first, or a higher-priority contender would legitimately jump it.
void WaitUntilInFlight(QueryService* service) {
  while (service->Snapshot().inflight == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

TEST(QosServiceTest, SubmitValidatesQosFields) {
  QosFixture fix(20, 90);
  auto service =
      QueryService::Create(fix.engine.get(), QueryServiceOptions());
  ASSERT_TRUE(service.ok());
  core::QuerySpec query = fix.MakeQuery(1, QosClass::kBatch);
  query.deadline_ms = 1e12;  // over the ~3-year bound ValidateSpec enforces
  EXPECT_FALSE((*service)->Submit(query).ok());
  query = fix.MakeQuery(1, QosClass::kBatch);
  query.neurons = {0, 0};  // duplicate neuron: same error as QL/the wire
  EXPECT_FALSE((*service)->Submit(query).ok());
  query = fix.MakeQuery(1, QosClass::kBatch);
  query.weight = 0;
  EXPECT_FALSE((*service)->Submit(query).ok());
  query = fix.MakeQuery(1, static_cast<QosClass>(7));
  EXPECT_FALSE((*service)->Submit(query).ok());
}

// The heart of the QoS contract: with a single worker held busy while both
// classes queue up, every interactive query is dispatched before any batch
// query — even though the batch queries were admitted first. Queue waits
// make the order observable: each batch query must have waited through all
// interactive executions.
TEST(QosServiceTest, QueuedInteractiveBeatsQueuedBatchDuringDrain) {
  QosFixture fix(40, 91);
  fix.MakeQueriesSlow(0.02);
  QueryServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 64;
  auto service = QueryService::Create(fix.engine.get(), options);
  ASSERT_TRUE(service.ok());

  // Occupy the worker, then queue batch before interactive.
  Future blocker =
      MustSubmit(service->get(), fix.MakeQuery(99, QosClass::kBatch));
  WaitUntilInFlight(service->get());
  std::vector<Future> batch, interactive;
  for (uint64_t s = 0; s < 4; ++s) {
    batch.push_back(
        MustSubmit(service->get(), fix.MakeQuery(10 + s, QosClass::kBatch)));
  }
  for (uint64_t s = 0; s < 4; ++s) {
    interactive.push_back(MustSubmit(
        service->get(), fix.MakeQuery(20 + s, QosClass::kInteractive)));
  }
  (*service)->Drain();

  ASSERT_TRUE(blocker.get().ok());
  double max_interactive_wait = 0.0;
  for (Future& future : interactive) {
    auto result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    max_interactive_wait =
        std::max(max_interactive_wait, result->stats.queue_seconds);
  }
  for (Future& future : batch) {
    auto result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->stats.queue_seconds, max_interactive_wait)
        << "a batch query was dispatched before a queued interactive query";
  }

  const ServiceStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.per_class[QosIndex(QosClass::kInteractive)].completed, 4);
  EXPECT_EQ(stats.per_class[QosIndex(QosClass::kBatch)].completed, 5);
}

// Within a class, deadline-carrying queries run earliest-deadline-first,
// ahead of deadline-free work — regardless of submission order.
TEST(QosServiceTest, EarliestDeadlineFirstWithinClass) {
  QosFixture fix(40, 92);
  fix.MakeQueriesSlow(0.02);
  QueryServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 64;
  auto service = QueryService::Create(fix.engine.get(), options);
  ASSERT_TRUE(service.ok());

  Future blocker =
      MustSubmit(service->get(), fix.MakeQuery(99, QosClass::kBatch));
  WaitUntilInFlight(service->get());
  // Submission order: no deadline, generous deadline, tighter deadline.
  Future no_deadline =
      MustSubmit(service->get(), fix.MakeQuery(1, QosClass::kBatch));
  Future loose = MustSubmit(service->get(),
                            fix.MakeQuery(2, QosClass::kBatch, /*dl=*/30.0));
  Future tight = MustSubmit(service->get(),
                            fix.MakeQuery(3, QosClass::kBatch, /*dl=*/10.0));
  (*service)->Drain();

  ASSERT_TRUE(blocker.get().ok());
  auto tight_result = tight.get();
  auto loose_result = loose.get();
  auto fifo_result = no_deadline.get();
  ASSERT_TRUE(tight_result.ok());
  ASSERT_TRUE(loose_result.ok());
  ASSERT_TRUE(fifo_result.ok());
  EXPECT_LT(tight_result->stats.queue_seconds,
            loose_result->stats.queue_seconds);
  EXPECT_LT(loose_result->stats.queue_seconds,
            fifo_result->stats.queue_seconds);
}

// Weighted round-robin across sessions within a class: a weight-4 session
// submitting 4 queries gets its whole turn before a weight-1 session's
// queries start.
TEST(QosServiceTest, SessionWeightsGiveProportionalTurns) {
  QosFixture fix(40, 93);
  fix.MakeQueriesSlow(0.02);
  QueryServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 64;
  auto service = QueryService::Create(fix.engine.get(), options);
  ASSERT_TRUE(service.ok());

  Future blocker =
      MustSubmit(service->get(), fix.MakeQuery(99, QosClass::kBatch));
  WaitUntilInFlight(service->get());
  std::vector<Future> heavy, light;
  for (int i = 0; i < 4; ++i) {
    heavy.push_back(MustSubmit(
        service->get(),
        fix.MakeQuery(1, QosClass::kBatch, /*dl=*/0.0, /*weight=*/4)));
  }
  for (int i = 0; i < 4; ++i) {
    light.push_back(MustSubmit(
        service->get(),
        fix.MakeQuery(2, QosClass::kBatch, /*dl=*/0.0, /*weight=*/1)));
  }
  (*service)->Drain();

  ASSERT_TRUE(blocker.get().ok());
  double max_heavy_wait = 0.0;
  for (Future& future : heavy) {
    auto result = future.get();
    ASSERT_TRUE(result.ok());
    max_heavy_wait = std::max(max_heavy_wait, result->stats.queue_seconds);
  }
  for (Future& future : light) {
    auto result = future.get();
    ASSERT_TRUE(result.ok());
    EXPECT_GT(result->stats.queue_seconds, max_heavy_wait)
        << "weight-1 session dispatched inside the weight-4 session's turn";
  }
}

// A query whose deadline passes while it is still queued resolves to
// DeadlineExceeded without ever running — it lands in
// rejected_past_deadline, not deadline_exceeded, and burns no worker time.
TEST(QosServiceTest, QueuedPastDeadlineIsRejectedWithoutRunning) {
  QosFixture fix(40, 94);
  fix.MakeQueriesSlow(0.03);
  QueryServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 64;
  // This test pins the *queued*-expiry taxonomy: the doomed query must sit
  // behind the blocker until its deadline lapses. With preemption on, the
  // interactive arrival can park the batch blocker at a round boundary and
  // dispatch the doomed query before its 1 ms deadline expires.
  // preemption_test.cc covers the same taxonomy with preemption enabled.
  options.enable_preemption = false;
  auto service = QueryService::Create(fix.engine.get(), options);
  ASSERT_TRUE(service.ok());

  Future blocker =
      MustSubmit(service->get(), fix.MakeQuery(99, QosClass::kBatch));
  WaitUntilInFlight(service->get());
  // 1 ms deadline behind a >=30 ms blocker: expires while queued.
  Future doomed = MustSubmit(
      service->get(), fix.MakeQuery(1, QosClass::kInteractive, /*dl=*/0.001));
  (*service)->Drain();

  ASSERT_TRUE(blocker.get().ok());
  auto result = doomed.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  const ServiceStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.rejected_past_deadline, 1);
  EXPECT_EQ(stats.deadline_exceeded, 0);
  EXPECT_EQ(stats.completed, 1);  // the blocker
  const QosClassStats& cls =
      stats.per_class[QosIndex(QosClass::kInteractive)];
  EXPECT_EQ(cls.rejected_past_deadline, 1);
  EXPECT_EQ(cls.completed, 0);
}

// A deadline that expires mid-execution aborts cooperatively between NTA
// rounds: the future resolves to DeadlineExceeded well before the query
// would have finished, and it counts under deadline_exceeded.
TEST(QosServiceTest, InFlightDeadlineAbortsBetweenRounds) {
  QosFixture fix(60, 95);
  // Every device batch blocks 50 ms; a k=30 most-similar query needs many
  // rounds, so its full runtime is far beyond the 60 ms deadline while the
  // deadline comfortably survives dispatch.
  fix.MakeQueriesSlow(0.05);
  QueryServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 8;
  auto service = QueryService::Create(fix.engine.get(), options);
  ASSERT_TRUE(service.ok());

  core::QuerySpec query = fix.MakeQuery(1, QosClass::kInteractive, /*dl=*/0.06);
  query.kind = core::QuerySpec::Kind::kMostSimilar;
  query.target_id = 5;
  query.k = 30;
  Future future = MustSubmit(service->get(), query);
  auto result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  const ServiceStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.rejected_past_deadline, 0);
  EXPECT_EQ(
      stats.per_class[QosIndex(QosClass::kInteractive)].deadline_exceeded, 1);
}

// Flat session round-robin is the QoS queue with every query in one class:
// weight-1, deadline-free batch queries from three sessions, submitted
// A A A B B B C C C behind a blocker, dispatch A B C A B C A B C.
TEST(QosServiceTest, OneClassIsFlatRoundRobinOverSessions) {
  QosFixture fix(40, 96);
  fix.MakeQueriesSlow(0.02);
  QueryServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 64;
  auto service = QueryService::Create(fix.engine.get(), options);
  ASSERT_TRUE(service.ok());

  Future blocker =
      MustSubmit(service->get(), fix.MakeQuery(99, QosClass::kBatch));
  WaitUntilInFlight(service->get());
  std::vector<std::pair<uint64_t, Future>> queued;
  for (uint64_t session = 1; session <= 3; ++session) {
    for (int i = 0; i < 3; ++i) {
      queued.emplace_back(
          session,
          MustSubmit(service->get(), fix.MakeQuery(session, QosClass::kBatch)));
    }
  }
  (*service)->Drain();

  ASSERT_TRUE(blocker.get().ok());
  std::vector<std::pair<double, uint64_t>> by_wait;
  for (auto& [session, future] : queued) {
    auto result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    by_wait.emplace_back(result->stats.queue_seconds, session);
  }
  std::sort(by_wait.begin(), by_wait.end());
  std::vector<uint64_t> order;
  for (const auto& [wait, session] : by_wait) order.push_back(session);
  EXPECT_EQ(order, (std::vector<uint64_t>{1, 2, 3, 1, 2, 3, 1, 2, 3}));
}

// Submit racing Drain() and Shutdown() with mixed classes and deadlines:
// no future may hang, and the split completion counters must account for
// every admitted query exactly once (overall and per class).
TEST(QosServiceTest, SubmitRacingDrainAndShutdownKeepsCountersConsistent) {
  QosFixture fix(40, 97);
  ASSERT_TRUE(fix.engine->PreprocessAllLayers().ok());
  QueryServiceOptions options;
  options.num_workers = 4;
  options.max_queue_depth = 32;
  auto service = QueryService::Create(fix.engine.get(), options);
  ASSERT_TRUE(service.ok());

  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 40;
  std::vector<std::vector<Future>> futures(kSubmitters);
  std::vector<std::thread> submitters;
  std::atomic<int> admitted{0};
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        core::QuerySpec query = fix.MakeQuery(
            static_cast<uint64_t>(t * 10 + i % 3),
            static_cast<QosClass>(i % kNumQosClasses),
            // A few absurdly tight deadlines to exercise the rejection
            // path under load.
            i % 7 == 0 ? 1e-6 : 0.0);
        auto submitted = (*service)->Submit(query);
        if (submitted.ok()) {
          futures[static_cast<size_t>(t)].push_back(
              std::move(submitted.value()));
          admitted.fetch_add(1);
        } else if (submitted.status().IsFailedPrecondition()) {
          return;  // service shut down mid-burst; expected
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  (*service)->Drain();
  (*service)->Shutdown();
  for (std::thread& submitter : submitters) submitter.join();

  // Every admitted future must resolve (to OK, DeadlineExceeded, or
  // Cancelled) — none may hang.
  for (auto& lane : futures) {
    for (Future& future : lane) {
      auto result = future.get();
      if (!result.ok()) {
        const StatusCode code = result.status().code();
        EXPECT_TRUE(code == StatusCode::kDeadlineExceeded ||
                    code == StatusCode::kCancelled)
            << result.status().ToString();
      }
    }
  }

  const ServiceStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.submitted, admitted.load());
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.failed + stats.cancelled +
                stats.deadline_exceeded + stats.rejected_past_deadline);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.inflight, 0u);

  // Per-class slices sum to the totals, field by field.
  int64_t submitted = 0, completed = 0, cancelled = 0, deadline_exceeded = 0,
          rejected_past_deadline = 0;
  for (const QosClassStats& cls : stats.per_class) {
    submitted += cls.submitted;
    completed += cls.completed;
    cancelled += cls.cancelled;
    deadline_exceeded += cls.deadline_exceeded;
    rejected_past_deadline += cls.rejected_past_deadline;
  }
  EXPECT_EQ(submitted, stats.submitted);
  EXPECT_EQ(completed, stats.completed);
  EXPECT_EQ(cancelled, stats.cancelled);
  EXPECT_EQ(deadline_exceeded, stats.deadline_exceeded);
  EXPECT_EQ(rejected_past_deadline, stats.rejected_past_deadline);
}

// Per-class latency histograms are recorded separately: a class that never
// ran reports zero percentiles while active classes report real ones.
TEST(QosServiceTest, PerClassLatencyPercentilesAreRecorded) {
  QosFixture fix(40, 98);
  ASSERT_TRUE(fix.engine->PreprocessAllLayers().ok());
  QueryServiceOptions options;
  options.num_workers = 2;
  options.max_queue_depth = 64;
  auto service = QueryService::Create(fix.engine.get(), options);
  ASSERT_TRUE(service.ok());

  std::vector<Future> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(MustSubmit(
        service->get(), fix.MakeQuery(1, QosClass::kInteractive)));
    futures.push_back(
        MustSubmit(service->get(), fix.MakeQuery(2, QosClass::kBatch)));
  }
  for (Future& future : futures) EXPECT_TRUE(future.get().ok());

  const ServiceStats stats = (*service)->Snapshot();
  const QosClassStats& interactive =
      stats.per_class[QosIndex(QosClass::kInteractive)];
  const QosClassStats& batch = stats.per_class[QosIndex(QosClass::kBatch)];
  const QosClassStats& best_effort =
      stats.per_class[QosIndex(QosClass::kBestEffort)];
  EXPECT_EQ(interactive.completed, 6);
  EXPECT_EQ(batch.completed, 6);
  EXPECT_GT(interactive.p50_latency_seconds, 0.0);
  EXPECT_GT(batch.p50_latency_seconds, 0.0);
  EXPECT_GE(batch.p99_latency_seconds, batch.p50_latency_seconds);
  EXPECT_EQ(best_effort.completed, 0);
  EXPECT_EQ(best_effort.p50_latency_seconds, 0.0);
}

}  // namespace
}  // namespace service
}  // namespace deepeverest
