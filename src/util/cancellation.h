// Cooperative cancellation for long-running solves.
//
// A CancelToken is a one-way latch: any thread may call Cancel() once (or
// many times), and workers poll cancelled() at safe points — the DCSGA
// seed driver checks between seeds, MinerSession::Solve checks
// between measure dispatches. Cancellation is cooperative and coarse by
// design: a solve either completes bit-identically to an uncancelled run or
// aborts with Status::Cancelled and no partial result, so cancelling never
// perturbs session state or determinism.

#ifndef DCS_UTIL_CANCELLATION_H_
#define DCS_UTIL_CANCELLATION_H_

#include <atomic>

namespace dcs {

/// \brief One-way cancellation latch shared between a controller and the
/// workers of one solve. Thread-safe; cheap enough to poll in inner loops.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation; idempotent.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// True once Cancel() was called. Relaxed: observing the flag late only
  /// delays the abort by one chunk of work.
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

}  // namespace dcs

#endif  // DCS_UTIL_CANCELLATION_H_
