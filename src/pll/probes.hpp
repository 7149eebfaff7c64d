#pragma once

#include <functional>

#include "pll/cppll.hpp"
#include "sim/circuit.hpp"
#include "sim/primitives.hpp"
#include "sim/trace.hpp"

namespace pllbist::pll {

/// Samples an arbitrary analog quantity (control voltage, ground-truth VCO
/// frequency, ...) into a Trace at a fixed interval. Verification-side
/// instrumentation — the BIST hardware has no such access.
class AnalogProbe : public sim::Component {
 public:
  AnalogProbe(sim::Circuit& c, std::function<double()> getter, sim::Trace& trace,
              double interval_s, double start_time_s = 0.0);
  void stop() { ++generation_; }

  /// Resume sampling from `start_time_s` (>= now). Safe after stop(); any
  /// previously pending sample chain is invalidated.
  void restart(double start_time_s);

  /// Change the sampling interval (effective from the next restart()).
  void setInterval(double interval_s);

  /// NOTE: the probe registers scheduled callbacks in the circuit; it must
  /// outlive any further circuit activity (stop() does not unregister the
  /// pending event, it only neutralises it).

 private:
  void sample(double now, unsigned generation);
  sim::Circuit& circuit_;
  std::function<double()> getter_;
  sim::Trace& trace_;
  double interval_;
  unsigned generation_ = 0;
};

/// Declares the loop locked once both PFD outputs have produced only pulses
/// no wider than `width_threshold_s` for `required_pulses` consecutive
/// pulses. A locked reference cycle gives two pulses (the UP glitch and the
/// DN glitch), so the default of 8 is four quiet reference cycles. Mirrors
/// the lock-detect circuits shipped alongside real CP-PLLs (and the paper's
/// assumption "the PLL is initially locked").
class LockDetector : public LoopTap {
 public:
  /// Taps `pll`'s UP and DN.
  LockDetector(CpPll& pll, double width_threshold_s, int required_pulses = 8);
  /// A detector wired to nothing: its owner feeds it through pumpChanged().
  explicit LockDetector(double width_threshold_s, int required_pulses = 8);

  /// UP (dn = false) or DN changed to `high` at `now`. True when
  /// isLocked() changed: a step loop waiting for lock sees it at this
  /// instant.
  bool pumpChanged(bool dn, bool high, double now) override;

  [[nodiscard]] bool isLocked() const { return consecutive_ok_ >= required_; }
  /// Time at which lock was (most recently) achieved; meaningless unless
  /// isLocked().
  [[nodiscard]] double lockTime() const { return lock_time_; }
  void reset() { consecutive_ok_ = 0; }

  /// Fork support (see sim::Circuit::copyStateFrom): take `source`'s state.
  void copyStateFrom(const LockDetector& source) {
    consecutive_ok_ = source.consecutive_ok_;
    lock_time_ = source.lock_time_;
    up_rise_ = source.up_rise_;
    dn_rise_ = source.dn_rise_;
  }

 private:
  /// True when isLocked() changed.
  bool pulseFinished(double now, double width);
  double threshold_;
  int required_;
  int consecutive_ok_ = 0;
  double lock_time_ = 0.0;
  double up_rise_ = -1.0;
  double dn_rise_ = -1.0;
};

}  // namespace pllbist::pll
