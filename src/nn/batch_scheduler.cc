#include "nn/batch_scheduler.h"

#include <algorithm>

namespace deepeverest {
namespace nn {

namespace {

std::chrono::nanoseconds LingerNanos(double seconds) {
  // Clamped to [0, ~3 years] before the cast, which is undefined out of
  // range; NaN clamps to 0.
  const double clamped = seconds > 0.0 ? std::min(seconds, 1e8) : 0.0;
  return std::chrono::nanoseconds(static_cast<int64_t>(clamped * 1e9));
}

}  // namespace

BatchingInferenceScheduler::BatchingInferenceScheduler(
    InferenceEngine* engine, BatchSchedulerOptions options)
    : engine_(engine),
      batch_size_(engine->batch_size()),
      num_streams_(std::max(1, options.num_dispatchers)),
      linger_{LingerNanos(options.interactive_linger_seconds),
              LingerNanos(options.linger_seconds),
              LingerNanos(options.best_effort_linger_seconds)},
      free_streams_(num_streams_),
      batch_time_(static_cast<size_t>(engine->model().num_layers()),
                  std::chrono::nanoseconds::max()) {
  DE_CHECK_GT(batch_size_, 0);
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
  request.layer = layer;
  request.qos = qos;
  {
    common::MutexLock lock(&mu_);
    request.arrival = Clock::now();
    request.flush_at =
        request.arrival + std::min(linger_[QosIndex(qos)],
                                   batch_time_[static_cast<size_t>(layer)]);
    LayerQueue& queue = pending_[layer];
    queue.requests.push_back(&request);
    queue.pending_inputs += input_ids.size();
    ++stats_.requests;
    stats_.inputs_enqueued += static_cast<int64_t>(input_ids.size());
    BatchSchedulerClassStats& class_stats = stats_.per_class[QosIndex(qos)];
    ++class_stats.requests;
    class_stats.inputs_enqueued += static_cast<int64_t>(input_ids.size());
    // `request.done` lives on this stack frame but is written by whichever
    // caller runs its last rows, under mu_; every read stays under mu_.
    while (!request.done) {
      const Clock::time_point now = Clock::now();
      const Selection selection =
          free_streams_ > 0 ? SelectLocked(now) : Selection{};
      // Only work at least as urgent as the caller's own: an interactive
      // query is never held up by a bulk batch it started.
      if (selection.has_ready && selection.best_class <= QosIndex(qos)) {
        RunSelectedLocked(selection);
        // Leaving: hand the stream just released to a sleeper with work.
        if (request.done) WakeOneLocked(SelectLocked(Clock::now()));
        continue;
      }
      WakeOneLocked(selection);  // ready work this caller may not run
      sleepers_.push_back(&request);
      if (request.dispatched < input_ids.size() && now < request.flush_at) {
        request.done_cv.WaitUntil(&mu_, request.flush_at);
      } else {
        request.done_cv.Wait(&mu_);
      }
      // A waker removes the caller it signals; other wake-ups leave it in.
      const auto it = std::find(sleepers_.begin(), sleepers_.end(), &request);
      if (it != sleepers_.end()) sleepers_.erase(it);
    }
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
  // request's linger window has expired. Among ready layers the most
  // urgent pending class wins, then the oldest head — FIFO across
  // equal-class layers, so sustained full-batch traffic on one layer cannot
  // starve an expired partial request on another.
  Selection selection;
  for (const auto& [layer, queue] : pending_) {
    if (queue.requests.empty()) continue;
    const Clock::time_point arrival = queue.requests.front()->arrival;
    // The layer's flush deadline and priority come from its most urgent
    // pending request (queues are at most a few requests deep — one per
    // blocked caller — so the scan is cheap).
    Clock::time_point deadline = Clock::time_point::max();
    int best_class = QosIndex(QosClass::kBestEffort);
    for (const Request* request : queue.requests) {
      if (request->flush_at < deadline) deadline = request->flush_at;
      if (QosIndex(request->qos) < best_class) {
        best_class = QosIndex(request->qos);
      }
    }
    const bool full = queue.pending_inputs >= static_cast<size_t>(batch_size_);
    if (!full && now < deadline) continue;
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
  }
  return selection;
}

void BatchingInferenceScheduler::RunSelectedLocked(const Selection& selection) {
  const int layer = selection.layer;
  // A full-ready layer gives this call its even share of its full batches;
  // a partial flush is one batch.
  size_t capacity = static_cast<size_t>(batch_size_);
  if (selection.partial) {
    ++stats_.linger_flushes;
    if (selection.best_class == QosIndex(QosClass::kInteractive)) {
      ++stats_.sealed_by_interactive;
    }
  } else {
    const size_t full_batches = pending_[layer].pending_inputs / capacity;
    const size_t streams = static_cast<size_t>(num_streams_);
    capacity *= (full_batches + streams - 1) / streams;
  }
  std::vector<uint32_t> batch_ids;
  std::vector<Slice> slices;
  GatherLocked(layer, capacity, &batch_ids, &slices);
  --free_streams_;
  // Ready work left behind gets one more caller while a stream is free.
  WakeOneLocked(SelectLocked(Clock::now()));
  RunBatch(layer, std::move(batch_ids), std::move(slices));
  ++free_streams_;
}

void BatchingInferenceScheduler::WakeOneLocked(const Selection& selection) {
  if (!selection.has_ready || free_streams_ == 0) return;
  // Prefer a caller whose own rows wait on the layer to serve, else one
  // that may run it and was not signalled done already.
  auto pick = std::find_if(
      sleepers_.begin(), sleepers_.end(), [&](const Request* request) {
        return request->layer == selection.layer &&
               request->dispatched < request->ids->size();
      });
  if (pick == sleepers_.end()) {
    pick = std::find_if(
        sleepers_.begin(), sleepers_.end(), [&](const Request* request) {
          return !request->done &&
                 QosIndex(request->qos) >= selection.best_class;
        });
  }
  if (pick == sleepers_.end()) return;
  (*pick)->done_cv.NotifyOne();
  sleepers_.erase(pick);
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
  // and launching on other streams while this batch computes).
  mu_.Unlock();
  std::vector<std::vector<float>> batch_rows;
  InferenceReceipt call_receipt;
  const Clock::time_point start = Clock::now();
  const Status status =
      engine_->ComputeLayer(batch_ids, layer, &batch_rows, &call_receipt);
  const Clock::duration took = Clock::now() - start;
  mu_.Lock();

  // The engine meters the call per logical batch of batch_size_ inputs;
  // counters and receipt shares are split the same way. A call of several
  // batches takes only full ones, so its batches cost the same.
  const size_t n = batch_ids.size();
  const size_t capacity = static_cast<size_t>(batch_size_);
  const size_t num_batches = (n + capacity - 1) / capacity;
  if (status.ok()) {
    batch_time_[static_cast<size_t>(layer)] =
        std::chrono::duration_cast<std::chrono::nanoseconds>(took) /
        static_cast<int64_t>(num_batches);
  }
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
