#pragma once

#include <cstdint>
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

/// The PFD's reset AND gate as a transport delay line: its output is
/// UP && DN, `and_delay_s` late. The reset window is [rst rise, rst fall):
/// a flop clock edge at the rise instant is ignored, one at the fall
/// instant is taken (the netlist's outcome at such an exact tie depends on
/// queue order; this is the rule both detectors pin). Plain data, so a
/// fork copies it.
class PfdResetLine {
 public:
  /// UP or DN changed; the AND output is `both` from time t on (t = change
  /// time + and delay; t never decreases). Returns true when that opens a
  /// reset window, i.e. the flops reset at t + reset-to-q.
  bool drive(double t, bool both) {
    if (both == driven_) return false;
    driven_ = both;
    edges_.push_back({t, both});
    return both;
  }

  /// Whether reset holds at time t; t never decreases between calls.
  bool held(double t) {
    std::size_t passed = 0;
    while (passed < edges_.size() && edges_[passed].time <= t) held_ = edges_[passed++].value;
    edges_.erase(edges_.begin(), edges_.begin() + static_cast<std::ptrdiff_t>(passed));
    return held_;
  }

 private:
  struct Edge {
    double time;
    bool value;
  };
  std::vector<Edge> edges_;  ///< AND output edges after the last held() query
  bool held_ = false;        ///< AND output as of the last held() query
  bool driven_ = false;      ///< AND output after every edge driven so far
};

/// Tri-state phase-frequency detector: the textbook topology of the
/// paper's Figure 5 discussion, two D flip-flops (D tied high) and a reset
/// AND gate, as one state machine.
///
///   REF rising -> UP := 1;  FB rising -> DN := 1;  UP && DN -> reset both.
///
/// When REF leads, UP pulses with width ~= the phase error (plus the glitch
/// tail on DN); when FB leads, DN pulses; when aligned, both emit dead-zone
/// glitches. A plain value type that its owner (pll::CpPll) drives: clock()
/// records a flop's clock edge, and the owner applies the flops' writes in
/// time order at their instants (nextWriteTime, applyNext). A write is made
/// at exactly the time, and with exactly the value, the gate netlist's flop
/// would make it. Whether the reset blocks a clock edge is decided when its
/// write is applied, once every reset edge up to the clock instant is known,
/// so a clock may be recorded ahead of its instant. The gate-level oracle in
/// tests/support/gates.hpp checks the equivalence.
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
    return pending_.empty() ? std::numeric_limits<double>::infinity() : pending_.front().time;
  }
  /// Apply the earliest pending write, due at `w.time`. Returns false when
  /// it was a clock edge the reset blocked (no write happens); otherwise
  /// fills `w`, and `changed` says whether the output changed (a flop
  /// re-clocked while high writes the level it already has).
  bool applyNext(Write& w, bool& changed);

  [[nodiscard]] bool up() const { return up_; }
  [[nodiscard]] bool dn() const { return dn_; }

 private:
  struct Pending {
    double time;
    uint64_t seq;  ///< orders writes due at the same time, like the kernel
    double clock;  ///< the clock edge behind a rising write; NaN for a reset
    bool dn;
    bool value;
  };
  void push(double time, double clock, bool dn, bool value);

  PfdDelays delays_;
  bool up_ = false;
  bool dn_ = false;
  PfdResetLine reset_;
  std::vector<Pending> pending_;  ///< ordered by (time, seq)
  uint64_t next_seq_ = 0;
};

}  // namespace pllbist::pll
