// Tests for the cross-query batching scheduler: row correctness vs. direct
// engine calls, exact per-caller receipts, cross-caller coalescing, linger
// flushes of partial batches and their measured-time cap, even-share
// multi-batch engine calls, class priority for a released stream, wake-up
// protocol stress, and error handling.
#include "nn/batch_scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "testing/test_util.h"

namespace deepeverest {
namespace nn {
namespace {

using testing_util::TinySystem;

std::vector<uint32_t> Ids(uint32_t begin, uint32_t count) {
  std::vector<uint32_t> ids(count);
  std::iota(ids.begin(), ids.end(), begin);
  return ids;
}

TEST(BatchSchedulerTest, SingleCallerMatchesEngineBitExactly) {
  TinySystem sys(50, 901, /*batch_size=*/16);
  const int layer = sys.model->activation_layers()[0];
  const std::vector<uint32_t> ids = Ids(0, 50);

  std::vector<std::vector<float>> direct_rows;
  InferenceReceipt direct_receipt;
  ASSERT_TRUE(
      sys.engine->ComputeLayer(ids, layer, &direct_rows, &direct_receipt)
          .ok());

  BatchSchedulerOptions options;
  options.linger_seconds = 0.001;
  BatchingInferenceScheduler scheduler(sys.engine.get(), options);
  std::vector<std::vector<float>> scheduled_rows;
  InferenceReceipt receipt;
  ASSERT_TRUE(
      scheduler.ComputeLayer(ids, layer, &scheduled_rows, &receipt).ok());

  ASSERT_EQ(direct_rows.size(), scheduled_rows.size());
  for (size_t i = 0; i < direct_rows.size(); ++i) {
    EXPECT_EQ(direct_rows[i], scheduled_rows[i]) << "row " << i;
  }
  // A lone caller shares nothing: its receipt equals the direct one —
  // 50 inputs in ceil(50/16) = 4 launches (3 full + 1 lingered flush).
  EXPECT_EQ(receipt.inputs_run, direct_receipt.inputs_run);
  EXPECT_DOUBLE_EQ(receipt.batches_run, direct_receipt.batches_run);
  EXPECT_EQ(receipt.macs, direct_receipt.macs);
  EXPECT_DOUBLE_EQ(receipt.simulated_gpu_seconds,
                   direct_receipt.simulated_gpu_seconds);

  const BatchSchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.requests, 1);
  EXPECT_EQ(stats.inputs_dispatched, 50);
  EXPECT_EQ(stats.batches_dispatched, 4);
  EXPECT_EQ(stats.shared_batches, 0);
}

TEST(BatchSchedulerTest, ConcurrentCallersCoalesceWithExactReceipts) {
  TinySystem sys(64, 902, /*batch_size=*/64);
  const int layer = sys.model->activation_layers()[1];

  // Reference rows for every input, computed directly.
  std::vector<std::vector<float>> reference;
  ASSERT_TRUE(
      sys.engine->ComputeLayer(Ids(0, 64), layer, &reference, nullptr).ok());

  // 8 callers x 8 inputs with a generous linger: the scheduler should pack
  // them into far fewer launches than the 8 a solo run would pay.
  BatchSchedulerOptions options;
  options.linger_seconds = 0.05;
  BatchingInferenceScheduler scheduler(sys.engine.get(), options);

  constexpr int kCallers = 8;
  std::vector<InferenceReceipt> receipts(kCallers);
  std::vector<std::vector<std::vector<float>>> rows(kCallers);
  std::vector<Status> statuses(kCallers);
  std::vector<std::thread> threads;
  for (int c = 0; c < kCallers; ++c) {
    threads.emplace_back([&, c] {
      const std::vector<uint32_t> ids = Ids(static_cast<uint32_t>(c) * 8, 8);
      statuses[static_cast<size_t>(c)] = scheduler.ComputeLayer(
          ids, layer, &rows[static_cast<size_t>(c)],
          &receipts[static_cast<size_t>(c)]);
    });
  }
  for (std::thread& thread : threads) thread.join();

  double total_batches = 0.0;
  for (int c = 0; c < kCallers; ++c) {
    ASSERT_TRUE(statuses[static_cast<size_t>(c)].ok());
    ASSERT_EQ(rows[static_cast<size_t>(c)].size(), 8u);
    for (size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(rows[static_cast<size_t>(c)][i],
                reference[static_cast<size_t>(c) * 8 + i])
          << "caller " << c << " row " << i;
    }
    // Exact attribution: each caller ran exactly its own 8 inputs.
    EXPECT_EQ(receipts[static_cast<size_t>(c)].inputs_run, 8);
    total_batches += receipts[static_cast<size_t>(c)].batches_run;
  }

  const BatchSchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.requests, kCallers);
  EXPECT_EQ(stats.inputs_dispatched, 64);
  // Solo, the 8 callers would launch 8 batches; coalesced they need far
  // fewer (1 when all 8 arrive within the linger window; allow scheduler
  // timing slop).
  EXPECT_LT(stats.batches_dispatched, kCallers);
  EXPECT_GT(stats.shared_batches, 0);
  // Fractional shares are conserved across callers.
  EXPECT_NEAR(total_batches, static_cast<double>(stats.batches_dispatched),
              1e-9);
}

TEST(BatchSchedulerTest, LingerWindowFlushesPartialBatch) {
  TinySystem sys(30, 903, /*batch_size=*/16);
  const int layer = sys.model->activation_layers()[0];
  BatchSchedulerOptions options;
  options.linger_seconds = 0.01;
  BatchingInferenceScheduler scheduler(sys.engine.get(), options);

  // 3 inputs can never fill a 16-lane batch; only the linger timeout can
  // dispatch them. The call returning at all proves the flush fires.
  std::vector<std::vector<float>> rows;
  InferenceReceipt receipt;
  ASSERT_TRUE(scheduler.ComputeLayer(Ids(5, 3), layer, &rows, &receipt).ok());
  EXPECT_EQ(rows.size(), 3u);
  EXPECT_EQ(receipt.inputs_run, 3);
  EXPECT_DOUBLE_EQ(receipt.batches_run, 1.0);

  const BatchSchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.batches_dispatched, 1);
  EXPECT_EQ(stats.linger_flushes, 1);
}

TEST(BatchSchedulerTest, OversizedRequestSpansMultipleBatches) {
  TinySystem sys(60, 904, /*batch_size=*/16);
  const int layer = sys.model->activation_layers()[0];
  BatchSchedulerOptions options;
  options.linger_seconds = 0.002;
  BatchingInferenceScheduler scheduler(sys.engine.get(), options);

  std::vector<std::vector<float>> direct_rows;
  ASSERT_TRUE(
      sys.engine->ComputeLayer(Ids(0, 60), layer, &direct_rows, nullptr).ok());

  std::vector<std::vector<float>> rows;
  InferenceReceipt receipt;
  ASSERT_TRUE(scheduler.ComputeLayer(Ids(0, 60), layer, &rows, &receipt).ok());
  ASSERT_EQ(rows.size(), 60u);
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i], direct_rows[i]);
  EXPECT_EQ(receipt.inputs_run, 60);
  EXPECT_DOUBLE_EQ(receipt.batches_run, 4.0);  // ceil(60/16)
}

TEST(BatchSchedulerTest, RejectsInvalidInputsSynchronously) {
  TinySystem sys(20, 905, /*batch_size=*/8);
  BatchingInferenceScheduler scheduler(sys.engine.get());
  std::vector<std::vector<float>> rows;

  Status bad_id = scheduler.ComputeLayer(
      {5, 99}, sys.model->activation_layers()[0], &rows, nullptr);
  EXPECT_FALSE(bad_id.ok());
  EXPECT_TRUE(bad_id.IsOutOfRange());

  Status bad_layer = scheduler.ComputeLayer({0}, 12345, &rows, nullptr);
  EXPECT_FALSE(bad_layer.ok());
  EXPECT_TRUE(bad_layer.IsOutOfRange());

  // An out-of-range class would index past the per-class linger/stat
  // arrays; it must be rejected before touching any of them.
  Status bad_class =
      scheduler.ComputeLayer({0}, sys.model->activation_layers()[0], &rows,
                             nullptr, static_cast<QosClass>(7));
  EXPECT_FALSE(bad_class.ok());
  EXPECT_TRUE(bad_class.IsInvalidArgument());

  // Empty request: trivially OK, no batch launched.
  EXPECT_TRUE(scheduler
                  .ComputeLayer({}, sys.model->activation_layers()[0], &rows,
                                nullptr)
                  .ok());
  EXPECT_EQ(scheduler.stats().batches_dispatched, 0);
}

// Starvation regression: sustained full-batch traffic on one layer must
// not postpone an expired partial request on another layer — ready queues
// are served oldest-head-first across layers. The hot threads run until
// the small request completes, or for at most 10 s; if it were starved
// until the hot traffic drained, some hot thread would have stopped on
// that cap first.
TEST(BatchSchedulerTest, ExpiredPartialIsNotStarvedByFullBatches) {
  TinySystem sys(48, 907, /*batch_size=*/16);
  const std::vector<int>& layers = sys.model->activation_layers();
  ASSERT_GE(layers.size(), 2u);
  BatchSchedulerOptions options;
  options.linger_seconds = 0.001;
  options.num_dispatchers = 1;  // a single stream must still be fair
  BatchingInferenceScheduler scheduler(sys.engine.get(), options);

  constexpr double kCapSeconds = 10.0;
  std::atomic<bool> small_done{false};
  std::atomic<int> hot_running{3};
  Stopwatch watch;
  std::vector<std::thread> hot;
  for (int t = 0; t < 3; ++t) {
    hot.emplace_back([&, t] {
      // Each request is exactly one full batch, keeping the hot layer's
      // queue dispatchable without ever waiting on the linger window.
      std::vector<std::vector<float>> rows;
      while (!small_done.load() && watch.ElapsedSeconds() < kCapSeconds) {
        ASSERT_TRUE(scheduler
                        .ComputeLayer(Ids(static_cast<uint32_t>(t) * 16, 16),
                                      layers[0], &rows, nullptr)
                        .ok());
      }
      hot_running.fetch_sub(1);
    });
  }

  // Let the hot traffic establish, then file a 3-input request on a quiet
  // layer: it can only be dispatched via the linger flush.
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::vector<std::vector<float>> rows;
  InferenceReceipt receipt;
  ASSERT_TRUE(
      scheduler.ComputeLayer(Ids(0, 3), layers[1], &rows, &receipt).ok());
  const int still_running = hot_running.load();
  small_done.store(true);
  for (std::thread& thread : hot) thread.join();

  EXPECT_EQ(receipt.inputs_run, 3);
  // The partial finished while all hot traffic was still running: no hot
  // thread had stopped on its wall-clock cap.
  EXPECT_EQ(still_running, 3) << "the partial waited out the hot traffic";
}

// QoS: an interactive request with a zero linger window does not wait out
// anyone's window — it flushes (seals) immediately, while a lone batch
// request on the same scheduler only leaves via the linger timeout.
TEST(BatchSchedulerTest, InteractiveRequestSealsPartialBatchImmediately) {
  TinySystem sys(40, 908, /*batch_size=*/16);
  const int layer = sys.model->activation_layers()[0];
  BatchSchedulerOptions options;
  // A linger far above the test's runtime budget: if the interactive
  // request waited out a window, the call would take >200 ms and the
  // elapsed check below would fail.
  options.linger_seconds = 0.2;
  options.best_effort_linger_seconds = 0.2;
  options.interactive_linger_seconds = 0.0;
  BatchingInferenceScheduler scheduler(sys.engine.get(), options);

  Stopwatch watch;
  std::vector<std::vector<float>> rows;
  InferenceReceipt receipt;
  ASSERT_TRUE(scheduler
                  .ComputeLayer(Ids(0, 3), layer, &rows, &receipt,
                                QosClass::kInteractive)
                  .ok());
  EXPECT_LT(watch.ElapsedSeconds(), 0.1)
      << "interactive request waited out a linger window";
  EXPECT_EQ(receipt.inputs_run, 3);

  const BatchSchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.sealed_by_interactive, 1);
  const BatchSchedulerClassStats& interactive =
      stats.per_class[QosIndex(QosClass::kInteractive)];
  EXPECT_EQ(interactive.requests, 1);
  EXPECT_EQ(interactive.inputs_dispatched, 3);
  EXPECT_EQ(interactive.batches_joined, 1);
}

// Per-class stats attribute rows to the class that requested them, and a
// shared batch counts once per class aboard.
TEST(BatchSchedulerTest, PerClassStatsSplitSharedBatches) {
  TinySystem sys(40, 909, /*batch_size=*/32);
  const int layer = sys.model->activation_layers()[0];
  BatchSchedulerOptions options;
  // Both classes linger long enough to meet in one batch; the interactive
  // arrival then seals it.
  options.linger_seconds = 0.05;
  options.interactive_linger_seconds = 0.0;
  BatchingInferenceScheduler scheduler(sys.engine.get(), options);

  Status batch_status, interactive_status;
  std::vector<std::vector<float>> batch_rows, interactive_rows;
  std::thread batch_caller([&] {
    batch_status = scheduler.ComputeLayer(Ids(0, 5), layer, &batch_rows,
                                          nullptr, QosClass::kBatch);
  });
  // Give the batch request time to enqueue (and start lingering) first.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  std::thread interactive_caller([&] {
    interactive_status =
        scheduler.ComputeLayer(Ids(10, 4), layer, &interactive_rows, nullptr,
                               QosClass::kInteractive);
  });
  batch_caller.join();
  interactive_caller.join();
  ASSERT_TRUE(batch_status.ok());
  ASSERT_TRUE(interactive_status.ok());

  const BatchSchedulerStats stats = scheduler.stats();
  const BatchSchedulerClassStats& batch =
      stats.per_class[QosIndex(QosClass::kBatch)];
  const BatchSchedulerClassStats& interactive =
      stats.per_class[QosIndex(QosClass::kInteractive)];
  EXPECT_EQ(batch.requests, 1);
  EXPECT_EQ(interactive.requests, 1);
  EXPECT_EQ(batch.inputs_dispatched, 5);
  EXPECT_EQ(interactive.inputs_dispatched, 4);
  // Whether the two calls met in one sealed batch or (on a slow machine)
  // dispatched separately, per-class inputs are exact and every batch each
  // class joined is counted.
  EXPECT_GE(batch.batches_joined, 1);
  EXPECT_GE(interactive.batches_joined, 1);
  EXPECT_EQ(stats.inputs_dispatched,
            batch.inputs_dispatched + interactive.inputs_dispatched);
}

// A batch-class request lingers its full window: a partial batch waits the
// whole `linger_seconds`, leaves through one linger flush, and seals
// nothing (only interactive requests seal).
TEST(BatchSchedulerTest, BatchRequestLingersFullWindowWithoutSealing) {
  TinySystem sys(40, 910, /*batch_size=*/16);
  const int layer = sys.model->activation_layers()[0];
  BatchSchedulerOptions options;
  options.linger_seconds = 0.02;
  options.interactive_linger_seconds = 0.0;
  BatchingInferenceScheduler scheduler(sys.engine.get(), options);

  Stopwatch watch;
  std::vector<std::vector<float>> rows;
  ASSERT_TRUE(scheduler
                  .ComputeLayer(Ids(0, 3), layer, &rows, nullptr,
                                QosClass::kBatch)
                  .ok());
  // The partial batch had to wait out the window.
  EXPECT_GE(watch.ElapsedSeconds(), 0.02);
  const BatchSchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.sealed_by_interactive, 0);
  EXPECT_EQ(stats.linger_flushes, 1);
  EXPECT_EQ(stats.per_class[QosIndex(QosClass::kBatch)].requests, 1);
}

// Once a layer has run a batch, a request on it lingers at most the
// layer's measured engine time per batch — far below a 200 ms window for
// TinyMlp — so a lone partial leaves without waiting out the window.
TEST(BatchSchedulerTest, MeasuredBatchTimeCapsLinger) {
  TinySystem sys(40, 912, /*batch_size=*/16);
  const int layer = sys.model->activation_layers()[0];
  BatchSchedulerOptions options;
  options.linger_seconds = 0.2;
  BatchingInferenceScheduler scheduler(sys.engine.get(), options);

  // A full batch is ready at once and measures the layer.
  std::vector<std::vector<float>> rows;
  ASSERT_TRUE(scheduler.ComputeLayer(Ids(0, 16), layer, &rows, nullptr).ok());

  Stopwatch watch;
  InferenceReceipt receipt;
  ASSERT_TRUE(scheduler
                  .ComputeLayer(Ids(20, 3), layer, &rows, &receipt,
                                QosClass::kBatch)
                  .ok());
  EXPECT_LT(watch.ElapsedSeconds(), 0.1)
      << "a measured layer's partial waited out the class window";
  EXPECT_EQ(receipt.inputs_run, 3);
  const BatchSchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.batches_dispatched, 2);
  EXPECT_EQ(stats.linger_flushes, 1);
  EXPECT_EQ(stats.sealed_by_interactive, 0);
}

// A released stream goes to the most urgent class: while the only stream
// runs a long (simulated-device) batch, a batch-class request is queued on
// one layer and then an interactive one on another; both are ready, and
// the interactive request's rows run first.
TEST(BatchSchedulerTest, ReleasedStreamServesInteractiveFirst) {
  TinySystem sys(40, 913, /*batch_size=*/16);
  const std::vector<int>& layers = sys.model->activation_layers();
  ASSERT_GE(layers.size(), 2u);
  sys.engine->mutable_cost_model()->launch_overhead_seconds = 0.3;
  sys.engine->set_simulate_device_latency(true);
  BatchSchedulerOptions options;
  options.linger_seconds = 0.0;  // the batch-class partial is ready at once
  options.num_dispatchers = 1;
  BatchingInferenceScheduler scheduler(sys.engine.get(), options);

  std::atomic<int> finished{0};
  int batch_rank = -1, interactive_rank = -1;
  auto call = [&](uint32_t count, int layer, QosClass qos, int* rank) {
    std::vector<std::vector<float>> rows;
    ASSERT_TRUE(
        scheduler.ComputeLayer(Ids(0, count), layer, &rows, nullptr, qos)
            .ok());
    if (rank != nullptr) *rank = finished.fetch_add(1);
  };
  std::thread holder(call, 16, layers[0], QosClass::kBatch, nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread batch(call, 3, layers[1], QosClass::kBatch, &batch_rank);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread interactive(call, 3, layers[0], QosClass::kInteractive,
                          &interactive_rank);
  holder.join();
  batch.join();
  interactive.join();

  EXPECT_EQ(interactive_rank, 0);
  EXPECT_EQ(batch_rank, 1);
  EXPECT_EQ(scheduler.stats().batches_dispatched, 3);
}

// A caller runs only work at least as urgent as its own class. Here the
// interactive caller's second batch runs on a batch-class caller's stream;
// when its own batch ends first, a batch-class full batch is ready and a
// stream is free, but the interactive caller leaves that batch to its owner
// and returns as soon as its rows land, instead of after a bulk batch.
TEST(BatchSchedulerTest, InteractiveCallerDoesNotStartBulkBatch) {
  TinySystem sys(40, 914, /*batch_size=*/16);
  const std::vector<int>& layers = sys.model->activation_layers();
  ASSERT_GE(layers.size(), 3u);
  sys.engine->mutable_cost_model()->launch_overhead_seconds = 0.2;
  sys.engine->set_simulate_device_latency(true);
  BatchSchedulerOptions options;
  options.linger_seconds = 0.5;
  options.num_dispatchers = 2;
  BatchingInferenceScheduler scheduler(sys.engine.get(), options);

  auto call = [&](uint32_t count, int layer, QosClass qos, double* seconds) {
    Stopwatch watch;
    std::vector<std::vector<float>> rows;
    ASSERT_TRUE(
        scheduler.ComputeLayer(Ids(0, count), layer, &rows, nullptr, qos)
            .ok());
    if (seconds != nullptr) *seconds = watch.ElapsedSeconds();
  };
  // A lingering batch-class caller: the helper the interactive caller's
  // second batch wakes.
  std::thread helper(call, 3, layers[0], QosClass::kBatch, nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  double interactive_seconds = 0.0;
  std::thread interactive(call, 32, layers[1], QosClass::kInteractive,
                          &interactive_seconds);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread bulk(call, 16, layers[2], QosClass::kBatch, nullptr);
  helper.join();
  interactive.join();
  bulk.join();

  // Two 0.2 s batches side by side; running the bulk batch too would take
  // the interactive call past 0.4 s.
  EXPECT_LT(interactive_seconds, 0.35);
  EXPECT_EQ(scheduler.stats().batches_dispatched, 4);
}

// One engine call on a full-ready layer takes its even share of the full
// batches, ceil(5 / 4) = 2 device batches here, yet counters and receipt
// shares are split per logical batch: the scheduler reports the same
// batches, fills and cost as a direct engine call of the same inputs.
TEST(BatchSchedulerTest, DeepQueueRunsInEvenSharesMeteredPerBatch) {
  constexpr int kBatch = 16;
  TinySystem sys(5 * kBatch + 3, 911, kBatch);
  const int layer = sys.model->activation_layers()[0];
  const std::vector<uint32_t> ids = Ids(0, 5 * kBatch + 3);

  std::vector<std::vector<float>> direct_rows;
  InferenceReceipt direct_receipt;
  ASSERT_TRUE(
      sys.engine->ComputeLayer(ids, layer, &direct_rows, &direct_receipt)
          .ok());

  BatchSchedulerOptions options;
  options.num_dispatchers = 4;
  BatchingInferenceScheduler scheduler(sys.engine.get(), options);
  std::vector<std::vector<float>> rows;
  InferenceReceipt receipt;
  ASSERT_TRUE(scheduler.ComputeLayer(ids, layer, &rows, &receipt).ok());
  EXPECT_EQ(rows, direct_rows);
  EXPECT_EQ(receipt.inputs_run, direct_receipt.inputs_run);
  EXPECT_DOUBLE_EQ(receipt.batches_run, direct_receipt.batches_run);
  EXPECT_EQ(receipt.macs, direct_receipt.macs);
  EXPECT_DOUBLE_EQ(receipt.simulated_gpu_seconds,
                   direct_receipt.simulated_gpu_seconds);

  const BatchSchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.batches_dispatched, 6);  // 5 full + the 3-input flush
  EXPECT_EQ(stats.inputs_dispatched, 5 * kBatch + 3);
  EXPECT_EQ(stats.shared_batches, 0);
  EXPECT_EQ(stats.fill_histogram[BatchSchedulerStats::kFillBuckets - 1], 5);
  EXPECT_EQ(stats.fill_histogram[1], 1);  // 3/16 is in (1/8, 2/8]
  EXPECT_EQ(stats.per_class[QosIndex(QosClass::kBatch)].batches_joined, 6);
}

// Lost-wake and conservation stress: 8 callers over 1, 2 and 4 streams,
// with the engine running at CPU speed and with a simulated device that
// holds each stream for at least 200 µs a batch, so callers keep queueing
// behind busy streams and every release hands one on. Callers of every
// QoS class file requests of 1 to 3 batches on rotating layers. Every row
// must equal a direct engine call's, every receipt must charge exactly its
// own inputs, and the receipts' batch shares must sum to the batches
// dispatched. A lost wake-up leaves a caller (and the test) blocked, which
// ctest reports as a timeout.
TEST(BatchSchedulerTest, ManyThreadsManyLayersStress) {
  constexpr int kBatch = 16;
  constexpr uint32_t kInputs = 3 * kBatch;
  TinySystem sys(kInputs, 906, kBatch);
  const std::vector<int>& layers = sys.model->activation_layers();
  std::vector<std::vector<std::vector<float>>> reference(layers.size());
  for (size_t l = 0; l < layers.size(); ++l) {
    ASSERT_TRUE(sys.engine
                    ->ComputeLayer(Ids(0, kInputs), layers[l], &reference[l],
                                   nullptr)
                    .ok());
  }
  const QosClass kClasses[] = {QosClass::kInteractive, QosClass::kBatch,
                               QosClass::kBestEffort};

  for (int config = 0; config < 6; ++config) {
    const int streams = 1 << (config % 3);
    const bool simulate_device = config >= 3;
    SCOPED_TRACE("streams = " + std::to_string(streams) +
                 ", simulated device = " + std::to_string(simulate_device));
    sys.engine->set_simulate_device_latency(simulate_device);
    BatchSchedulerOptions options;
    options.linger_seconds = 0.0005;
    options.best_effort_linger_seconds = 0.001;
    options.num_dispatchers = streams;
    BatchingInferenceScheduler scheduler(sys.engine.get(), options);

    constexpr int kThreads = 8;
    constexpr int kRounds = 12;
    std::atomic<int> failures{0};
    std::atomic<int64_t> inputs{0};
    std::vector<double> batches_run(kThreads, 0.0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int round = 0; round < kRounds; ++round) {
          const size_t l = static_cast<size_t>(t + round) % layers.size();
          const uint32_t count =
              1 + static_cast<uint32_t>(t * 7 + round * 5) % kInputs;
          const uint32_t begin =
              static_cast<uint32_t>(t * 11 + round * 3) % (kInputs - count + 1);
          const QosClass qos = kClasses[(t + round) % 3];
          std::vector<std::vector<float>> rows;
          InferenceReceipt receipt;
          const Status status = scheduler.ComputeLayer(
              Ids(begin, count), layers[l], &rows, &receipt, qos);
          bool ok = status.ok() && rows.size() == count &&
                    receipt.inputs_run == static_cast<int64_t>(count);
          for (uint32_t i = 0; ok && i < count; ++i) {
            ok = rows[i] == reference[l][begin + i];
          }
          if (!ok) failures.fetch_add(1);
          inputs.fetch_add(count);
          batches_run[static_cast<size_t>(t)] += receipt.batches_run;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(failures.load(), 0);

    const BatchSchedulerStats stats = scheduler.stats();
    EXPECT_EQ(stats.requests, kThreads * kRounds);
    EXPECT_EQ(stats.inputs_enqueued, inputs.load());
    EXPECT_EQ(stats.inputs_dispatched, inputs.load());
    double shares = 0.0;
    for (const double b : batches_run) shares += b;
    EXPECT_NEAR(shares, static_cast<double>(stats.batches_dispatched), 1e-6);
    int64_t histogram = 0;
    for (const int64_t bucket : stats.fill_histogram) histogram += bucket;
    EXPECT_EQ(histogram, stats.batches_dispatched);
  }
}

}  // namespace
}  // namespace nn
}  // namespace deepeverest
