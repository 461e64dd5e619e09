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
      num_dispatchers_(std::max(1, options.num_dispatchers)),
      linger_{LingerNanos(options.interactive_linger_seconds),
              LingerNanos(options.linger_seconds),
              LingerNanos(options.best_effort_linger_seconds)} {
  DE_CHECK_GT(batch_size_, 0);
  dispatchers_.reserve(static_cast<size_t>(num_dispatchers_));
  for (int i = 0; i < num_dispatchers_; ++i) {
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
    // One dispatcher serves (or times) this arrival; none is needed when
    // the layer is not ready and an idle one already sleeps until an
    // earlier deadline (it rescans then).
    if (queue.pending_inputs >= static_cast<size_t>(batch_size_) ||
        request.flush_at < timer_) {
      work_cv_.NotifyOne();
    }
    // `request.done` lives on this stack frame but is written by the
    // dispatcher under mu_; the explicit loop keeps every read under mu_.
    while (!request.done) request.done_cv.Wait(&mu_);
  }
  if (receipt != nullptr) *receipt += request.receipt;
  if (!request.status.ok()) {
    rows->clear();
    return request.status;
  }
  return Status::OK();
}

BatchingInferenceScheduler::Selection BatchingInferenceScheduler::SelectLocked(
    Clock::time_point now) const {
  // A layer is *ready* when it has a full batch pending or any pending
  // request's class linger window has expired (always, when stopping) —
  // interactive requests carry a zero window by default, so a layer they
  // join becomes ready (sealed) immediately. Among ready layers the most
  // urgent pending class wins, then the oldest head — FIFO across
  // equal-class layers, so sustained full-batch traffic on one layer cannot
  // starve an expired partial request on another (hot layers keep
  // presenting newer heads while a waiting head's arrival stays fixed).
  Selection selection;
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
    const bool full = queue.pending_inputs >= static_cast<size_t>(batch_size_);
    if (full || stopping_ || now >= deadline) {
      const bool better = !selection.has_ready ||
                          best_class < selection.best_class ||
                          (best_class == selection.best_class &&
                           arrival < selection.arrival);
      if (better) {
        selection.has_ready = true;
        selection.layer = layer;
        selection.partial = !full;
        selection.best_class = best_class;
        selection.arrival = arrival;
      }
    } else if (deadline < selection.next_deadline) {
      selection.next_deadline = deadline;
    }
  }
  return selection;
}

void BatchingInferenceScheduler::DispatcherLoop() {
  common::MutexLock lock(&mu_);
  for (;;) {
    if (pending_.empty() && stopping_) return;
    const Clock::time_point now = Clock::now();
    const Selection selection = SelectLocked(now);
    if (!selection.has_ready) {
      if (selection.next_deadline < timer_) {
        // Time the earliest lingering partial; new arrivals or the deadline
        // re-run the selection above.
        const Clock::time_point deadline = selection.next_deadline;
        timer_ = deadline;
        work_cv_.WaitUntil(&mu_, deadline);
        if (timer_ == deadline) timer_ = Clock::time_point::max();
      } else {
        work_cv_.Wait(&mu_);
      }
      continue;
    }
    const int layer = selection.layer;
    // A full-ready layer gives this turn its even share of its full
    // batches; a partial flush is one batch.
    size_t capacity = static_cast<size_t>(batch_size_);
    if (selection.partial) {
      if (!stopping_) {
        ++stats_.linger_flushes;
        if (selection.best_class == QosIndex(QosClass::kInteractive)) {
          ++stats_.sealed_by_interactive;
        }
      }
    } else {
      const size_t full_batches = pending_[layer].pending_inputs / capacity;
      const size_t dispatchers = static_cast<size_t>(num_dispatchers_);
      capacity *= (full_batches + dispatchers - 1) / dispatchers;
    }

    std::vector<uint32_t> batch_ids;
    std::vector<Slice> slices;
    GatherLocked(layer, capacity, &batch_ids, &slices);
    // Work left behind gets one more dispatcher: now when it is ready, or
    // as its timer when it lingers and no idle dispatcher times it yet.
    const Selection rest = SelectLocked(now);
    if (rest.has_ready || rest.next_deadline < timer_) work_cv_.NotifyOne();
    RunBatch(layer, std::move(batch_ids), std::move(slices));
  }
}

void BatchingInferenceScheduler::GatherLocked(int layer, size_t capacity,
                                              std::vector<uint32_t>* batch_ids,
                                              std::vector<Slice>* slices) {
  auto it = pending_.find(layer);
  if (it == pending_.end()) return;
  LayerQueue& queue = it->second;
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
  InferenceReceipt call_receipt;
  const Status status =
      engine_->ComputeLayer(batch_ids, layer, &batch_rows, &call_receipt);
  mu_.Lock();

  // The engine meters the call per logical batch of batch_size_ inputs;
  // counters and receipt shares are split the same way. A call of several
  // batches takes only full ones, so its batches cost the same.
  const size_t n = batch_ids.size();
  const size_t capacity = static_cast<size_t>(batch_size_);
  const size_t num_batches = (n + capacity - 1) / capacity;
  // ComputeLayer meters macs as n * CumulativeMacs(layer), so this division
  // recovers the per-input cost exactly.
  const int64_t macs_per_input =
      status.ok() ? call_receipt.macs / static_cast<int64_t>(n) : 0;
  const double batch_runs =
      call_receipt.batches_run / static_cast<double>(num_batches);
  const double batch_seconds =
      call_receipt.simulated_gpu_seconds / static_cast<double>(num_batches);
  size_t slice_index = 0;
  size_t slice_offset = 0;  // ids of slices[slice_index] already charged
  for (size_t begin = 0; begin < n; begin += capacity) {
    const size_t batch_n = std::min(capacity, n - begin);
    bool class_aboard[kNumQosClasses] = {};
    size_t contributors = 0;
    for (size_t charged = 0; charged < batch_n; ++contributors) {
      const Slice& slice = slices[slice_index];
      const size_t piece =
          std::min(slice.count - slice_offset, batch_n - charged);
      Request* request = slice.request;
      BatchSchedulerClassStats& class_stats =
          stats_.per_class[QosIndex(request->qos)];
      class_stats.inputs_dispatched += static_cast<int64_t>(piece);
      if (!class_aboard[QosIndex(request->qos)]) {
        class_aboard[QosIndex(request->qos)] = true;
        ++class_stats.batches_joined;
      }
      if (status.ok()) {
        const double share =
            static_cast<double>(piece) / static_cast<double>(batch_n);
        request->receipt.inputs_run += static_cast<int64_t>(piece);
        request->receipt.batches_run += share * batch_runs;
        request->receipt.macs += macs_per_input * static_cast<int64_t>(piece);
        request->receipt.simulated_gpu_seconds += share * batch_seconds;
      }
      charged += piece;
      slice_offset += piece;
      if (slice_offset == slice.count) {
        ++slice_index;
        slice_offset = 0;
      }
    }
    stats_.batches_dispatched += 1;
    stats_.inputs_dispatched += static_cast<int64_t>(batch_n);
    if (contributors > 1) stats_.shared_batches += 1;
    // Occupancy histogram bucket for fill in (i/8, (i+1)/8]: with
    // batch_n >= 1, ceil(fill * 8) - 1 lands exactly there.
    const size_t fill_bucket =
        (batch_n * BatchSchedulerStats::kFillBuckets + capacity - 1) /
            capacity -
        1;
    stats_.fill_histogram[fill_bucket] += 1;
  }

  size_t offset = 0;
  for (const Slice& slice : slices) {
    Request* request = slice.request;
    if (status.ok()) {
      for (size_t i = 0; i < slice.count; ++i) {
        (*request->rows)[slice.src_begin + i] =
            std::move(batch_rows[offset + i]);
      }
    } else if (request->status.ok()) {
      request->status = status;
    }
    offset += slice.count;
    request->completed += slice.count;
    if (request->completed == request->ids->size()) {
      // Signalled under mu_: the caller cannot leave its wait (and destroy
      // the request) before this thread releases the lock.
      request->done = true;
      request->done_cv.NotifyOne();
    }
  }
}

BatchSchedulerStats BatchingInferenceScheduler::stats() const {
  common::MutexLock lock(&mu_);
  return stats_;
}

}  // namespace nn
}  // namespace deepeverest
