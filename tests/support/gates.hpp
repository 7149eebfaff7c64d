#pragma once

#include "sim/circuit.hpp"
#include "sim/primitives.hpp"

namespace pllbist::testing {

/// Gate-level oracles. The library's phase detectors and frequency counter
/// are behavioural; these primitives build the netlists they replace, so
/// the differential tests can check them transition for transition.

/// out = in after `delay_s`; a pure delay element ("additional delay
/// elements" of section 4.2 used to widen dead-zone glitches).
class Buffer : public sim::Component {
 public:
  Buffer(sim::Circuit& c, sim::SignalId in, sim::SignalId out, double delay_s);
};

/// out = a AND b after delay.
class AndGate : public sim::Component {
 public:
  AndGate(sim::Circuit& c, sim::SignalId a, sim::SignalId b, sim::SignalId out, double delay_s);
};

/// Rising-edge D flip-flop with optional active-high asynchronous reset.
/// clk->q and reset->q delays are independent; while reset is asserted,
/// clock edges are ignored. This is the latch the PFD is built from, so the
/// reset-path delay is what creates the dead-zone glitches.
class DFlipFlop : public sim::Component {
 public:
  DFlipFlop(sim::Circuit& c, sim::SignalId clk, sim::SignalId d, sim::SignalId q,
            double clk_to_q_s, sim::SignalId reset = sim::kNoSignal, double reset_to_q_s = 0.0);

 private:
  sim::Circuit& circuit_;
  sim::SignalId d_;
  sim::SignalId q_;
  sim::SignalId reset_;
  double clk_to_q_;
  double reset_to_q_;
};

/// Gated rising-edge counter (the BIST frequency counter as a netlist).
/// start() zeroes and arms it; stop() freezes the count.
class GatedCounter : public sim::Component {
 public:
  GatedCounter(sim::Circuit& c, sim::SignalId in);
  void start() { count_ = 0; running_ = true; }
  void stop() { running_ = false; }
  [[nodiscard]] long count() const { return count_; }

 private:
  long count_ = 0;
  bool running_ = false;
};

}  // namespace pllbist::testing
