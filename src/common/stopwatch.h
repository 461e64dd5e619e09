#ifndef DEEPEVEREST_COMMON_STOPWATCH_H_
#define DEEPEVEREST_COMMON_STOPWATCH_H_

#include <chrono>

namespace deepeverest {

/// \brief Monotonic wall-clock stopwatch used by the benchmark harness.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// \brief Adds the wall time of its scope to `*acc` on every exit path. The
/// resumable executions charge each Step with it, so `wall_seconds` covers
/// exactly the time spent stepping — parked intervals between Step calls
/// cost a query nothing.
class ActiveTimeCharge {
 public:
  explicit ActiveTimeCharge(double* acc) : acc_(acc) {}
  ~ActiveTimeCharge() { *acc_ += watch_.ElapsedSeconds(); }
  ActiveTimeCharge(const ActiveTimeCharge&) = delete;
  ActiveTimeCharge& operator=(const ActiveTimeCharge&) = delete;

 private:
  Stopwatch watch_;
  double* acc_;
};

}  // namespace deepeverest

#endif  // DEEPEVEREST_COMMON_STOPWATCH_H_
