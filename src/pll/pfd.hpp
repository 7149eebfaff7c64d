#pragma once

#include <string>
#include <vector>

#include "sim/circuit.hpp"
#include "sim/primitives.hpp"

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
/// glitches. UP and DN are written at exactly the times and with exactly
/// the values the gate netlist's flops would write them, and the machine
/// reacts to UP and DN as delivered, like the netlist's AND gate. The reset
/// net is internal state (a PfdResetLine); it is written, like the VCO's
/// output, only while something observes it (Circuit::hasObservers), so a
/// fault rule on it reaches its observers but not the flops. A gate-level
/// oracle in tests/bist/detector_equivalence_test.cpp checks the equivalence.
class Pfd : public sim::Component {
 public:
  Pfd(sim::Circuit& c, sim::SignalId ref, sim::SignalId fb, const PfdDelays& delays,
      const std::string& name_prefix = "pfd");

  [[nodiscard]] sim::SignalId up() const { return up_; }
  [[nodiscard]] sim::SignalId dn() const { return dn_; }
  /// The reset net (= UP AND DN delayed), written only while observed.
  [[nodiscard]] sim::SignalId resetNet() const { return rst_; }

  /// Fork support (see sim::Circuit::copyStateFrom): take `source`'s state.
  void copyStateFrom(const Pfd& source) { reset_ = source.reset_; }

 private:
  /// A rising clock edge on the flop driving `q`.
  void clock(sim::SignalId q, double now);
  void outputsChanged(double now);

  sim::Circuit& circuit_;
  PfdDelays delays_;
  sim::SignalId up_;
  sim::SignalId dn_;
  sim::SignalId rst_;
  PfdResetLine reset_;
};

}  // namespace pllbist::pll
