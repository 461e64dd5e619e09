#ifndef DEEPEVEREST_COMMON_WORKER_SET_H_
#define DEEPEVEREST_COMMON_WORKER_SET_H_

#include <cstddef>

namespace deepeverest {
namespace common {

/// \brief Calls `fn(i)` once for every i in [0, n), spread over the calling
/// thread and up to `width - 1` helpers of the process-wide worker set.
///
/// The worker set is one helper thread per core but one, started on the
/// first fan-out and joined at exit. Items are claimed one at a time
/// from a shared atomic counter by the caller and the helpers alike. The
/// caller waits only for items a helper has actually claimed, never for a
/// helper that has not woken up (or failed to start): a late helper finds
/// nothing left and goes back to sleep. Only one fan-out runs at a time: a
/// call made while another is in flight (or from inside an item) runs all
/// its items inline, so the threads running items never exceed
/// callers + cores - 1.
///
/// `fn` must not throw. Items run in no particular order and on any thread,
/// so item i must write only state no other item touches. Everything the
/// items wrote is visible to the caller when ParallelFor returns.
template <typename Fn>
void ParallelFor(size_t n, size_t width, const Fn& fn);

namespace internal {
void ParallelForErased(size_t n, size_t width,
                       void (*call)(const void* fn, size_t i), const void* fn);
}  // namespace internal

template <typename Fn>
void ParallelFor(size_t n, size_t width, const Fn& fn) {
  if (n == 0) return;
  if (width <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  internal::ParallelForErased(
      n, width,
      [](const void* f, size_t i) { (*static_cast<const Fn*>(f))(i); }, &fn);
}

}  // namespace common
}  // namespace deepeverest

#endif  // DEEPEVEREST_COMMON_WORKER_SET_H_
