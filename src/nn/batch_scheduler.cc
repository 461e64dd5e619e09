#include "nn/batch_scheduler.h"

#include <algorithm>

namespace deepeverest {
namespace nn {

namespace {

std::chrono::nanoseconds LingerNanos(double seconds) {
  return std::chrono::nanoseconds(
      static_cast<int64_t>(std::max(0.0, seconds) * 1e9));
}

}  // namespace

BatchingInferenceScheduler::BatchingInferenceScheduler(
    InferenceEngine* engine, BatchSchedulerOptions options)
    : engine_(engine),
      batch_size_(engine->batch_size()),
      linger_{LingerNanos(options.interactive_linger_seconds),
              LingerNanos(options.linger_seconds),
              LingerNanos(options.best_effort_linger_seconds)} {
  DE_CHECK_GT(batch_size_, 0);
  const int n = options.num_dispatchers > 0 ? options.num_dispatchers : 1;
  dispatchers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    dispatchers_.emplace_back([this] { DispatcherLoop(); });
  }
}

BatchingInferenceScheduler::~BatchingInferenceScheduler() {
  {
    common::MutexLock lock(&mu_);
    stopping_ = true;
  }
  // Dispatchers drain whatever is still queued (without lingering), so any
  // caller blocked in ComputeLayer is served before the threads exit.
  work_cv_.NotifyAll();
  for (std::thread& dispatcher : dispatchers_) {
    if (dispatcher.joinable()) dispatcher.join();
  }
}

Status BatchingInferenceScheduler::ComputeLayer(
    const std::vector<uint32_t>& input_ids, int layer,
    std::vector<std::vector<float>>* rows, InferenceReceipt* receipt,
    QosClass qos) {
  rows->clear();
  // Validate up front (the class indexes fixed-size linger/stat arrays, and
  // once inputs are merged into a shared batch, one bad id would fail every
  // co-scheduled query's launch).
  if (QosIndex(qos) < 0 || QosIndex(qos) >= kNumQosClasses) {
    return Status::InvalidArgument("unknown QoS class");
  }
  if (input_ids.empty()) return Status::OK();
  if (layer < 0 || layer >= engine_->model().num_layers()) {
    return Status::OutOfRange("layer " + std::to_string(layer) +
                              " out of range");
  }
  const uint32_t num_inputs = engine_->dataset().size();
  for (uint32_t id : input_ids) {
    if (id >= num_inputs) {
      return Status::OutOfRange("inputID " + std::to_string(id) +
                                " out of range [0, " +
                                std::to_string(num_inputs) + ")");
    }
  }

  rows->resize(input_ids.size());
  Request request;
  request.ids = &input_ids;
  request.rows = rows;
  request.qos = qos;
  {
    common::MutexLock lock(&mu_);
    if (stopping_) {
      rows->clear();
      return Status::FailedPrecondition("batch scheduler is shutting down");
    }
    request.arrival = Clock::now();
    request.flush_at = request.arrival + linger_[QosIndex(qos)];
    LayerQueue& queue = pending_[layer];
    queue.requests.push_back(&request);
    queue.pending_inputs += input_ids.size();
    ++stats_.requests;
    stats_.inputs_enqueued += static_cast<int64_t>(input_ids.size());
    BatchSchedulerClassStats& class_stats = stats_.per_class[QosIndex(qos)];
    ++class_stats.requests;
    class_stats.inputs_enqueued += static_cast<int64_t>(input_ids.size());
    work_cv_.NotifyAll();
    // `request.done` lives on this stack frame but is written by the
    // dispatcher under mu_; the explicit loop keeps every read under mu_.
    while (!request.done) done_cv_.Wait(&mu_);
  }
  if (receipt != nullptr) *receipt += request.receipt;
  if (!request.status.ok()) {
    rows->clear();
    return request.status;
  }
  return Status::OK();
}

void BatchingInferenceScheduler::DispatcherLoop() {
  common::MutexLock lock(&mu_);
  for (;;) {
    if (pending_.empty()) {
      if (stopping_) return;
      while (!stopping_ && pending_.empty()) work_cv_.Wait(&mu_);
      continue;
    }

    // Pick the layer to serve. A layer is *ready* when it has a full batch
    // pending or any pending request's class linger window has expired
    // (always, when stopping) — interactive requests carry a zero window by
    // default, so a layer they join becomes ready (sealed) immediately.
    // Among ready layers the most urgent pending class wins, then the
    // oldest head — FIFO across equal-class layers, so sustained full-batch
    // traffic on one layer cannot starve an expired partial request on
    // another (hot layers keep presenting newer heads while a waiting
    // head's arrival stays fixed).
    const Clock::time_point now = Clock::now();
    bool has_ready = false;
    int ready_layer = 0;
    bool ready_is_partial = false;
    int ready_class = 0;
    Clock::time_point ready_arrival{};
    bool has_waiting = false;
    Clock::time_point next_deadline{};
    for (const auto& [layer, queue] : pending_) {
      if (queue.requests.empty()) continue;
      const Clock::time_point arrival = queue.requests.front()->arrival;
      // The layer's flush deadline and priority come from its most urgent
      // pending request (queues are at most a few requests deep — one per
      // blocked worker — so the scan is cheap).
      Clock::time_point deadline = Clock::time_point::max();
      int best_class = QosIndex(QosClass::kBestEffort);
      for (const Request* request : queue.requests) {
        if (request->flush_at < deadline) deadline = request->flush_at;
        if (QosIndex(request->qos) < best_class) {
          best_class = QosIndex(request->qos);
        }
      }
      const bool full =
          queue.pending_inputs >= static_cast<size_t>(batch_size_);
      if (full || stopping_ || now >= deadline) {
        const bool better =
            !has_ready || best_class < ready_class ||
            (best_class == ready_class && arrival < ready_arrival);
        if (better) {
          has_ready = true;
          ready_layer = layer;
          ready_arrival = arrival;
          ready_is_partial = !full;
          ready_class = best_class;
        }
      } else if (!has_waiting || deadline < next_deadline) {
        has_waiting = true;
        next_deadline = deadline;
      }
    }
    if (!has_ready) {
      if (!has_waiting) {  // defensive: map held only empty queues
        pending_.clear();
        continue;
      }
      // Wait for more inputs to top a batch up; new arrivals or the
      // deadline re-run the selection above.
      work_cv_.WaitUntil(&mu_, next_deadline);
      continue;
    }
    const int layer = ready_layer;
    if (ready_is_partial && !stopping_) {
      ++stats_.linger_flushes;
      if (ready_class == QosIndex(QosClass::kInteractive)) {
        ++stats_.sealed_by_interactive;
      }
    }

    std::vector<uint32_t> batch_ids;
    std::vector<Slice> slices;
    GatherBatchLocked(layer, &batch_ids, &slices);
    if (batch_ids.empty()) continue;
    RunBatch(layer, std::move(batch_ids), std::move(slices));
  }
}

void BatchingInferenceScheduler::GatherBatchLocked(
    int layer, std::vector<uint32_t>* batch_ids, std::vector<Slice>* slices) {
  auto it = pending_.find(layer);
  if (it == pending_.end()) return;
  LayerQueue& queue = it->second;
  const size_t capacity = static_cast<size_t>(batch_size_);
  batch_ids->reserve(std::min(capacity, queue.pending_inputs));
  while (!queue.requests.empty() && batch_ids->size() < capacity) {
    Request* request = queue.requests.front();
    const size_t remaining = request->ids->size() - request->dispatched;
    const size_t take = std::min(remaining, capacity - batch_ids->size());
    slices->push_back(Slice{request, request->dispatched, take});
    for (size_t i = 0; i < take; ++i) {
      batch_ids->push_back((*request->ids)[request->dispatched + i]);
    }
    request->dispatched += take;
    queue.pending_inputs -= take;
    // Fully dispatched requests leave the queue; their completion is
    // tracked through the slices of the batches they joined.
    if (request->dispatched == request->ids->size()) {
      queue.requests.pop_front();
    }
  }
  if (queue.requests.empty()) pending_.erase(it);
}

void BatchingInferenceScheduler::RunBatch(int layer,
                                          std::vector<uint32_t> batch_ids,
                                          std::vector<Slice> slices) {
  // The engine call must not run under mu_ (other callers keep enqueueing
  // and other dispatchers keep launching while this batch computes).
  mu_.Unlock();
  std::vector<std::vector<float>> batch_rows;
  InferenceReceipt batch_receipt;
  const Status status =
      engine_->ComputeLayer(batch_ids, layer, &batch_rows, &batch_receipt);
  mu_.Lock();

  const int64_t n = static_cast<int64_t>(batch_ids.size());
  // ComputeLayer meters macs as n * CumulativeMacs(layer), so this division
  // recovers the per-input cost exactly.
  const int64_t macs_per_input =
      status.ok() && n > 0 ? batch_receipt.macs / n : 0;
  bool class_aboard[kNumQosClasses] = {};
  size_t offset = 0;
  for (const Slice& slice : slices) {
    Request* request = slice.request;
    BatchSchedulerClassStats& class_stats =
        stats_.per_class[QosIndex(request->qos)];
    class_stats.inputs_dispatched += static_cast<int64_t>(slice.count);
    if (!class_aboard[QosIndex(request->qos)]) {
      class_aboard[QosIndex(request->qos)] = true;
      ++class_stats.batches_joined;
    }
    if (status.ok()) {
      for (size_t i = 0; i < slice.count; ++i) {
        (*request->rows)[slice.src_begin + i] =
            std::move(batch_rows[offset + i]);
      }
      const double share =
          static_cast<double>(slice.count) / static_cast<double>(n);
      request->receipt.inputs_run += static_cast<int64_t>(slice.count);
      request->receipt.batches_run += share * batch_receipt.batches_run;
      request->receipt.macs +=
          macs_per_input * static_cast<int64_t>(slice.count);
      request->receipt.simulated_gpu_seconds +=
          share * batch_receipt.simulated_gpu_seconds;
    } else if (request->status.ok()) {
      request->status = status;
    }
    request->completed += slice.count;
    offset += slice.count;
    if (request->completed == request->ids->size()) request->done = true;
  }
  stats_.batches_dispatched += 1;
  stats_.inputs_dispatched += n;
  if (slices.size() > 1) stats_.shared_batches += 1;
  // Occupancy histogram bucket for fill in (i/8, (i+1)/8]: with n >= 1,
  // ceil(fill * 8) - 1 lands exactly there; clamp defends against a
  // hypothetical overfull batch.
  const int fill_bucket = std::min(
      BatchSchedulerStats::kFillBuckets - 1,
      static_cast<int>((n * BatchSchedulerStats::kFillBuckets + batch_size_ -
                        1) /
                       batch_size_) -
          1);
  stats_.fill_histogram[static_cast<size_t>(std::max(0, fill_bucket))] += 1;
  done_cv_.NotifyAll();
}

BatchSchedulerStats BatchingInferenceScheduler::stats() const {
  common::MutexLock lock(&mu_);
  return stats_;
}

}  // namespace nn
}  // namespace deepeverest
