#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace pllbist::pll {

/// Gate delays of the PFD's internal elements. The dead-zone glitch width is
/// approximately and_delay + ff_reset_to_q: when the loop is phase-aligned,
/// both outputs pulse high for that long every reference cycle (the paper's
/// Figure 5 "coincident dead zone pulses"). The peak-detect circuitry is
/// clocked from exactly these glitches, so the detectors reproduce every
/// gate delay of the netlist instead of abstracting the glitches away.
struct PfdDelays {
  double ff_clk_to_q_s = 4e-9;
  double and_delay_s = 3e-9;
  double ff_reset_to_q_s = 4e-9;

  [[nodiscard]] double glitchWidth() const { return and_delay_s + ff_reset_to_q_s; }
  void validate() const;
};

/// A net as a list of decided level changes: those not yet folded into the
/// settled level, and the level before them. Plain data, so a fork copies
/// it.
struct TimedNet {
  struct Change {
    double time;
    bool value;
  };
  bool settled = false;         ///< the level before the first change
  std::vector<Change> changes;  ///< time-ordered

  [[nodiscard]] bool last() const { return changes.empty() ? settled : changes.back().value; }
  /// The level after every change at or before t.
  [[nodiscard]] bool at(double t) const {
    bool level = settled;
    for (const Change& c : changes) {
      if (c.time > t) break;
      level = c.value;
    }
    return level;
  }
  /// Fold the changes at or before t into `settled`.
  void forget(double t) {
    std::size_t passed = 0;
    while (passed < changes.size() && changes[passed].time <= t) settled = changes[passed++].value;
    changes.erase(changes.begin(), changes.begin() + static_cast<std::ptrdiff_t>(passed));
  }
};

/// Tri-state phase-frequency detector: the textbook topology of the
/// paper's Figure 5 discussion, two D flip-flops (D tied high) and a reset
/// AND gate, as one state machine.
///
///   REF rising -> UP := 1;  FB rising -> DN := 1;  UP && DN -> reset both.
///
/// When REF leads, UP pulses with width ~= the phase error (plus the glitch
/// tail on DN); when FB leads, DN pulses; when aligned, both emit dead-zone
/// glitches. A plain value type that its owner drives (pll::CpPll's loop
/// PFD, bist::PeakDetector's monitor PFD): clock() records a flop's clock
/// edge, and the owner applies the flops' writes in time order at their
/// instants (nextWriteTime, applyNext). A write is made at exactly the
/// time, and with exactly the value, the gate netlist's flop would make it.
/// The reset AND is a TimedNet of UP && DN, `and_delay_s` late; its window
/// [rise, fall) blocks a clock edge at the rise instant and passes one at
/// the fall instant (the netlist's outcome at such an exact tie depends on
/// queue order; this is the rule the detectors pin). Whether the reset
/// blocks a clock edge is decided when its write is applied, once every
/// reset edge up to the clock instant is known, so a clock may be recorded
/// ahead of its instant. The gate-level oracle in tests/support/gates.hpp
/// checks the equivalence.
class Pfd {
 public:
  explicit Pfd(const PfdDelays& delays);

  /// One flop output write: UP (dn = false) or DN := value at `time`.
  struct Write {
    double time;
    bool dn;
    bool value;
  };

  /// A rising edge on REF (dn = false) or FB (dn = true) at time t. Clock
  /// times of one flop never decrease.
  void clock(bool dn, double t);
  /// Forget the FB clock edges recorded for times after t.
  void unclockFbAfter(double t);

  /// When the earliest pending write is due; +infinity when none is.
  [[nodiscard]] double nextWriteTime() const {
    return head_ == pending_.size() ? std::numeric_limits<double>::infinity()
                                    : pending_[head_].time;
  }
  /// Apply the earliest pending write, due at `w.time`. Returns false when
  /// it was a clock edge the reset blocked (no write happens); otherwise
  /// fills `w`, and `changed` says whether the output changed (a flop
  /// re-clocked while high writes the level it already has). A changed
  /// write that leaves UP and DN both high opens a reset window: both flops
  /// reset at (w.time + and_delay_s) + ff_reset_to_q_s.
  bool applyNext(Write& w, bool& changed);

  [[nodiscard]] bool up() const { return up_; }
  [[nodiscard]] bool dn() const { return dn_; }
  [[nodiscard]] const PfdDelays& delays() const { return delays_; }

 private:
  struct Pending {
    double time;
    double clock;  ///< the clock edge behind a rising write; NaN for a reset
    bool dn;
    bool value;
  };
  static constexpr double kNoClock = std::numeric_limits<double>::quiet_NaN();
  void push(double time, double clock, bool dn, bool value);

  PfdDelays delays_;
  bool up_ = false;
  bool dn_ = false;
  TimedNet reset_;                ///< the reset AND's output
  std::vector<Pending> pending_;  ///< by time, then insertion; [head_, end) not applied yet
  std::size_t head_ = 0;
};

// Defined here so that both owners' event loops can inline them.

inline void Pfd::push(double time, double clock, bool dn, bool value) {
  if (pending_.size() == pending_.capacity()) {  // drop the applied writes before growing
    pending_.erase(pending_.begin(), pending_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  const auto head = pending_.begin() + static_cast<std::ptrdiff_t>(head_);
  auto at = pending_.end();
  while (at != head && (at - 1)->time > time) --at;
  pending_.insert(at, {time, clock, dn, value});
}

inline void Pfd::clock(bool dn, double t) { push(t + delays_.ff_clk_to_q_s, t, dn, true); }

inline bool Pfd::applyNext(Write& w, bool& changed) {
  const Pending p = pending_[head_];
  if (++head_ == pending_.size()) {
    pending_.clear();
    head_ = 0;
  }
  // The asynchronous reset dominates the clock. Clock edges come in time
  // order, so the reset net is forgotten up to them in time order.
  if (!std::isnan(p.clock)) {
    reset_.forget(p.clock);
    if (reset_.settled) return false;
  }
  w = {p.time, p.dn, p.value};
  bool& q = p.dn ? dn_ : up_;
  changed = q != p.value;
  if (!changed) return true;
  q = p.value;
  const bool both = up_ && dn_;
  if (both == reset_.last()) return true;
  const double t = p.time + delays_.and_delay_s;
  reset_.changes.push_back({t, both});
  if (both) {
    const double t_reset = t + delays_.ff_reset_to_q_s;
    push(t_reset, kNoClock, false, false);
    push(t_reset, kNoClock, true, false);
  }
  return true;
}

}  // namespace pllbist::pll
