#include "common/worker_set.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <system_error>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace deepeverest {
namespace common {
namespace {

using ItemFn = void (*)(const void* fn, size_t i);

// One fan-out. Owned by shared_ptr: a helper that wakes after the caller
// returned still holds the job, finds `next` past `n` and touches nothing
// else — in particular not `fn`, which lives on the caller's stack.
struct Job {
  Job(size_t n, size_t seats, ItemFn call, const void* fn)
      : n(n), call(call), fn(fn), seats(static_cast<int64_t>(seats)) {}

  const size_t n;
  const ItemFn call;
  const void* const fn;
  std::atomic<size_t> next{0};  // the next unclaimed item
  std::atomic<size_t> done{0};  // items finished, by anyone
  std::atomic<int64_t> seats;   // helpers that may still join
  Mutex mu;
  CondVar all_done;  // notified when `done` reaches `n`
};

// Claims and runs items until none is left.
void Drain(Job* job) {
  for (size_t i = job->next.fetch_add(1); i < job->n;
       i = job->next.fetch_add(1)) {
    job->call(job->fn, i);
    if (job->done.fetch_add(1) + 1 == job->n) {
      MutexLock lock(&job->mu);
      job->all_done.NotifyAll();
    }
  }
}

class WorkerSet {
 public:
  // Started on first use; the helpers are joined at exit.
  static WorkerSet& Get() {
    static WorkerSet set;
    return set;
  }

  WorkerSet(const WorkerSet&) = delete;
  WorkerSet& operator=(const WorkerSet&) = delete;

  ~WorkerSet() {
    {
      MutexLock lock(&mu_);
      stop_ = true;
    }
    wake_.NotifyAll();
    for (std::thread& helper : helpers_) helper.join();
  }

  void Run(size_t n, size_t width, ItemFn call, const void* fn) {
    width = std::min({width, n, helpers_.size() + 1});
    if (width <= 1) {
      for (size_t i = 0; i < n; ++i) call(fn, i);
      return;
    }
    if (fanning_out_.exchange(true)) {  // another fan-out is in flight
      for (size_t i = 0; i < n; ++i) call(fn, i);
      return;
    }
    const auto job = std::make_shared<Job>(n, width - 1, call, fn);
    {
      MutexLock lock(&mu_);
      job_ = job;
      ++generation_;
    }
    for (size_t h = 1; h < width; ++h) wake_.NotifyOne();
    Drain(job.get());
    // Every item is claimed now; wait for the ones helpers are running.
    {
      MutexLock lock(&job->mu);
      while (job->done.load() != n) job->all_done.Wait(&job->mu);
    }
    {
      MutexLock lock(&mu_);
      if (job_ == job) job_.reset();
    }
    fanning_out_.store(false);
  }

 private:
  WorkerSet() {
    const unsigned cores = std::thread::hardware_concurrency();
    for (unsigned t = 1; t < cores; ++t) {
      try {
        helpers_.emplace_back(&WorkerSet::Loop, this);
      } catch (const std::system_error&) {
        break;  // out of threads: fan-outs use the helpers already started
      }
    }
  }

  void Loop() {
    uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        MutexLock lock(&mu_);
        while (generation_ == seen && !stop_) wake_.Wait(&mu_);
        if (stop_) return;
        seen = generation_;
        job = job_;
      }
      if (job != nullptr && job->seats.fetch_sub(1) > 0) Drain(job.get());
    }
  }

  std::atomic<bool> fanning_out_{false};  // one fan-out at a time
  Mutex mu_;
  CondVar wake_;
  bool stop_ GUARDED_BY(mu_) = false;
  uint64_t generation_ GUARDED_BY(mu_) = 0;
  std::shared_ptr<Job> job_ GUARDED_BY(mu_);
  std::vector<std::thread> helpers_;  // written only by the constructor
};

}  // namespace

namespace internal {
void ParallelForErased(size_t n, size_t width, ItemFn call, const void* fn) {
  WorkerSet::Get().Run(n, width, call, fn);
}
}  // namespace internal

}  // namespace common
}  // namespace deepeverest
