// Tests for per-Submit streaming progress and per-query control: ordered
// progress events through core::QuerySpec::on_progress, early stop via the
// callback's return value, and cooperative cancellation through the
// SubmitWithControl handle (reflected in ServiceStats.cancelled).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_util/demo_system.h"
#include "service/query_service.h"

namespace deepeverest {
namespace service {
namespace {

using bench_util::DemoSystem;
using bench_util::DemoSystemOptions;

/// A query with enough NTA rounds to observe several progress events on
/// the 200-input demo system (batch size 8).
core::QuerySpec MultiRoundQuery(const nn::Model& model) {
  core::QuerySpec query;
  query.kind = core::QuerySpec::Kind::kHighest;
  query.layer = model.activation_layers().front();
  query.neurons = {0, 1, 2, 3};
  query.k = 10;
  return query;
}

TEST(StreamingProgressTest, EventsArriveInConfirmedCountOrder) {
  auto system = DemoSystem::Make(DemoSystemOptions());
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  QueryServiceOptions options;
  options.num_workers = 2;
  auto service = QueryService::Create((*system)->engine(), options);
  ASSERT_TRUE(service.ok());

  core::QuerySpec query = MultiRoundQuery(*(*system)->model());
  // All sink invocations happen on the worker thread executing the query
  // and happen-before the future resolves, so this vector needs no lock.
  std::vector<core::NtaProgress> events;
  query.on_progress = [&events](const core::NtaProgress& progress) {
    events.push_back(progress);
    return true;
  };
  auto submitted = (*service)->Submit(std::move(query));
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  auto result = submitted->get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_GE(events.size(), 2u) << "expected a multi-round query";
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].round, events[i - 1].round) << "event " << i;
    // For kHighest the confirmed set grows monotonically: thresholds only
    // tighten and entries only improve.
    EXPECT_GE(events[i].confirmed.size(), events[i - 1].confirmed.size())
        << "event " << i;
  }
  // Every confirmed entry is final: it appears in the result with the
  // same value.
  for (const core::NtaProgress& progress : events) {
    for (const core::ResultEntry& confirmed : progress.confirmed) {
      bool found = false;
      for (const core::ResultEntry& entry : result->entries) {
        if (entry.input_id == confirmed.input_id &&
            entry.value == confirmed.value) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "confirmed input " << confirmed.input_id
                         << " missing from the final result";
    }
  }
}

TEST(StreamingProgressTest, CallbackReturningFalseStopsEarly) {
  auto system = DemoSystem::Make(DemoSystemOptions());
  ASSERT_TRUE(system.ok());
  QueryServiceOptions options;
  options.num_workers = 1;
  auto service = QueryService::Create((*system)->engine(), options);
  ASSERT_TRUE(service.ok());

  // Baseline: count the full run's progress events.
  size_t full_run_events = 0;
  {
    core::QuerySpec query = MultiRoundQuery(*(*system)->model());
    query.on_progress = [&full_run_events](const core::NtaProgress&) {
      ++full_run_events;
      return true;
    };
    auto result = (*service)->Execute(std::move(query));
    ASSERT_TRUE(result.ok());
  }
  ASSERT_GE(full_run_events, 2u);

  // Early stop after the first event: still an OK result (the current
  // θ-guaranteed top-k), with strictly fewer events.
  size_t events = 0;
  core::QuerySpec query = MultiRoundQuery(*(*system)->model());
  query.on_progress = [&events](const core::NtaProgress&) {
    ++events;
    return false;
  };
  auto result = (*service)->Execute(std::move(query));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(events, 1u);
  // One round in, the top set may not be full yet — but whatever is there
  // is a valid prefix.
  EXPECT_GE(result->entries.size(), 1u);
  EXPECT_LE(result->entries.size(), 10u);

  const ServiceStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.completed, 2);  // early stop is completion, not an error
  EXPECT_EQ(stats.cancelled, 0);
}

TEST(StreamingProgressTest, CancelMidFlightCountsAsCancelled) {
  DemoSystemOptions demo_options;
  demo_options.device_latency_scale = 8.0;  // slow enough to cancel into
  auto system = DemoSystem::Make(demo_options);
  ASSERT_TRUE(system.ok());
  QueryServiceOptions options;
  options.num_workers = 2;
  auto service = QueryService::Create((*system)->engine(), options);
  ASSERT_TRUE(service.ok());

  core::QuerySpec query = MultiRoundQuery(*(*system)->model());
  // The first progress event holds its round until the cancel has been
  // requested, so the query cannot finish before the cancel lands, however
  // fast its rounds run. Shared with the sink, which may outlive an early
  // return.
  struct Handshake {
    std::mutex mu;
    std::condition_variable cv;
    bool first_event = false;
    bool cancel_sent = false;
  };
  auto handshake = std::make_shared<Handshake>();
  query.on_progress = [handshake](const core::NtaProgress&) {
    std::unique_lock<std::mutex> lock(handshake->mu);
    if (!handshake->first_event) {
      handshake->first_event = true;
      handshake->cv.notify_all();
      handshake->cv.wait_for(lock, std::chrono::seconds(10),
                             [&] { return handshake->cancel_sent; });
    }
    return true;
  };
  auto submitted = (*service)->SubmitWithControl(std::move(query));
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  {
    std::unique_lock<std::mutex> lock(handshake->mu);
    ASSERT_TRUE(handshake->cv.wait_for(lock, std::chrono::seconds(10), [&] {
      return handshake->first_event;
    })) << "query produced no progress to cancel after";
  }
  submitted->context->Cancel();
  {
    std::lock_guard<std::mutex> lock(handshake->mu);
    handshake->cancel_sent = true;
  }
  handshake->cv.notify_all();
  auto result = submitted->result.get();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();

  const ServiceStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.per_class[QosIndex(QosClass::kBatch)].cancelled, 1);
  EXPECT_EQ(stats.completed, 0);
}

TEST(StreamingProgressTest, CancelWhileQueuedNeverRuns) {
  DemoSystemOptions demo_options;
  demo_options.device_latency_scale = 4.0;
  auto system = DemoSystem::Make(demo_options);
  ASSERT_TRUE(system.ok());
  QueryServiceOptions options;
  options.num_workers = 1;  // one worker: the second query must queue
  auto service = QueryService::Create((*system)->engine(), options);
  ASSERT_TRUE(service.ok());

  // Block the only worker with a slow query.
  auto blocker =
      (*service)->Submit(MultiRoundQuery(*(*system)->model()));
  ASSERT_TRUE(blocker.ok());

  auto queued =
      (*service)->SubmitWithControl(MultiRoundQuery(*(*system)->model()));
  ASSERT_TRUE(queued.ok());
  queued->context->Cancel();

  auto result = queued->result.get();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled());
  // Rejected at dispatch: the cancelled query never ran any inference.
  EXPECT_EQ(queued->context->receipt.inputs_run, 0);

  ASSERT_TRUE(blocker->get().ok());
  const ServiceStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.completed, 1);
}

TEST(StreamingProgressTest, ProgressSinkComposesWithQosAndDeadlines) {
  auto system = DemoSystem::Make(DemoSystemOptions());
  ASSERT_TRUE(system.ok());
  QueryServiceOptions options;
  options.num_workers = 2;
  auto service = QueryService::Create((*system)->engine(), options);
  ASSERT_TRUE(service.ok());

  core::QuerySpec query = MultiRoundQuery(*(*system)->model());
  query.qos = QosClass::kInteractive;
  query.deadline_ms = 30000.0;  // generous: must not fire
  std::atomic<int> events{0};
  query.on_progress = [&events](const core::NtaProgress&) {
    ++events;
    return true;
  };
  auto result = (*service)->Execute(std::move(query));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(events.load(), 1);
  const ServiceStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.per_class[QosIndex(QosClass::kInteractive)].completed, 1);
}

}  // namespace
}  // namespace service
}  // namespace deepeverest
