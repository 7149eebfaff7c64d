#pragma once

#include <atomic>
#include <chrono>
#include <csignal>
#include <limits>

namespace pllbist {

/// Cooperative cancellation token shared between a requester (signal
/// handler, another thread, or its own wall-clock deadline) and the sweep
/// engines' hot loops. Engines poll stopRequested() at bounded intervals
/// and drain to a fully-labelled partial result — a stop is never a hang
/// and never a torn data structure.
///
/// Tokens chain: an engine-local token can point at an upstream one (the
/// process-global token the signal handlers trip), so one Ctrl-C stops
/// every engine without the engines sharing mutable state. requestStop()
/// is a single atomic store, safe from a signal handler. A deadline
/// (stopAt) needs no thread: the polls themselves compare it with the
/// clock, and a token without one reads no clock.
class StopSource {
 public:
  using Clock = std::chrono::steady_clock;

  StopSource() = default;
  StopSource(const StopSource&) = delete;
  StopSource& operator=(const StopSource&) = delete;

  void requestStop() noexcept { stop_.store(true, std::memory_order_release); }
  /// Re-arm (tests only; production tokens are one-shot by convention).
  void clear() noexcept { stop_.store(false, std::memory_order_release); }
  /// Also honour `upstream` (may be nullptr to unchain). Not thread-safe
  /// against concurrent stopRequested(); chain before handing the token out.
  void chainTo(const StopSource* upstream) noexcept { upstream_ = upstream; }
  /// Stop by itself once `deadline` has passed.
  void stopAt(Clock::time_point deadline) noexcept {
    deadline_.store(deadline.time_since_epoch().count(), std::memory_order_release);
  }

  /// This token's own deadline has passed (an upstream's does not count).
  [[nodiscard]] bool deadlineReached() const noexcept {
    const Clock::rep deadline = deadline_.load(std::memory_order_acquire);
    return deadline != kNoDeadline && Clock::now().time_since_epoch().count() >= deadline;
  }

  [[nodiscard]] bool stopRequested() const noexcept {
    return stop_.load(std::memory_order_acquire) || deadlineReached() ||
           (upstream_ != nullptr && upstream_->stopRequested());
  }

 private:
  static constexpr Clock::rep kNoDeadline = std::numeric_limits<Clock::rep>::max();
  std::atomic<bool> stop_{false};
  std::atomic<Clock::rep> deadline_{kNoDeadline};
  const StopSource* upstream_ = nullptr;
};

/// The time point `seconds` after `start`, or Clock::time_point::max()
/// (never) past half the clock's remaining range, so a budget of 1e30 s or
/// inf cannot overflow the nanosecond cast.
inline StopSource::Clock::time_point deadlineAfter(StopSource::Clock::time_point start,
                                                   double seconds) {
  using Clock = StopSource::Clock;
  const std::chrono::duration<double> room = Clock::time_point::max() - start;
  if (!(seconds < room.count() / 2)) return Clock::time_point::max();
  return start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

/// The process-wide token the SIGINT/SIGTERM handlers trip. CLIs chain
/// their engines to it; library code never touches it.
inline StopSource& globalStopSource() {
  static StopSource source;
  return source;
}

/// Install SIGINT/SIGTERM handlers that request a cooperative stop via
/// globalStopSource(). The first signal drains the run (journal flushed,
/// partial report emitted, exit code 130); the handler then restores the
/// default disposition so a second signal force-kills a wedged process.
inline void installStopSignalHandlers() {
  // Touch the token now: the handler must not be the first caller, because
  // a guarded static-local initialisation is not async-signal-safe.
  (void)globalStopSource();
  auto handler = [](int sig) {
    globalStopSource().requestStop();
    std::signal(sig, SIG_DFL);
  };
  std::signal(SIGINT, handler);
  std::signal(SIGTERM, handler);
}

}  // namespace pllbist
