#pragma once

#include <vector>

#include "sim/circuit.hpp"

namespace pllbist::sim {

/// Digital building blocks used to assemble the on-chip test circuitry at
/// the same granularity as the paper's FPGA implementation. Every primitive
/// registers callbacks (self-scheduling sources: a Circuit::Handler) on
/// construction; instances must therefore outlive the Circuit's run and are
/// pinned in memory (non-copyable, non-movable).
class Component {
 public:
  Component() = default;
  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;
  virtual ~Component() = default;
};

/// out = !in after `delay_s` (transport delay; delay must be > 0).
class Inverter : public Component {
 public:
  Inverter(Circuit& c, SignalId in, SignalId out, double delay_s);
};

/// out = in after `delay_s`; a pure delay element ("additional delay
/// elements" of section 4.2 used to widen dead-zone glitches).
class Buffer : public Component {
 public:
  Buffer(Circuit& c, SignalId in, SignalId out, double delay_s);
};

/// out = a AND b after delay.
class AndGate : public Component {
 public:
  AndGate(Circuit& c, SignalId a, SignalId b, SignalId out, double delay_s);
};

/// out = a OR b after delay.
class OrGate : public Component {
 public:
  OrGate(Circuit& c, SignalId a, SignalId b, SignalId out, double delay_s);
};

/// out = sel ? b : a after delay. Re-drives the output when sel or the
/// selected input changes; a change of the unselected input writes nothing
/// (the netlist would re-write the value the output already carries).
class Mux2 : public Component {
 public:
  Mux2(Circuit& c, SignalId a, SignalId b, SignalId sel, SignalId out, double delay_s);
};

/// Rising-edge D flip-flop with optional active-high asynchronous reset.
/// clk->q and reset->q delays are independent; while reset is asserted,
/// clock edges are ignored. This is the latch the PFD is built from, so the
/// reset-path delay is what creates the dead-zone glitches.
class DFlipFlop : public Component {
 public:
  DFlipFlop(Circuit& c, SignalId clk, SignalId d, SignalId q, double clk_to_q_s,
            SignalId reset = kNoSignal, double reset_to_q_s = 0.0);

 private:
  Circuit& circuit_;
  SignalId d_;
  SignalId q_;
  SignalId reset_;
  double clk_to_q_;
  double reset_to_q_;
};

/// Level-transparent D latch: while enable is high, q tracks d (after
/// delay); when enable falls the last value is held.
class DLatch : public Component {
 public:
  DLatch(Circuit& c, SignalId d, SignalId enable, SignalId q, double delay_s);

 private:
  Circuit& circuit_;
  SignalId d_;
  SignalId enable_;
  SignalId q_;
  double delay_;
};

/// Free-running square-wave source: toggles its output with the given
/// period starting at start_time. stop() freezes the output.
class ClockSource : public Component, private Circuit::Handler {
 public:
  ClockSource(Circuit& c, SignalId out, double period_s, double start_time_s = 0.0);
  void stop() { running_ = false; }
  [[nodiscard]] double period() const { return period_; }
  /// Fork support (see Circuit::copyStateFrom): take `source`'s state.
  void copyStateFrom(const ClockSource& source) { running_ = source.running_; }

 private:
  /// Every event is the next half-period toggle (the tag is unused).
  bool onEvent(uint32_t tag, double now) override;
  Circuit& circuit_;
  Circuit::HandlerId handler_;
  SignalId out_;
  double period_;
  bool running_ = true;
};

/// Programmable toggle divider: output toggles every `modulus` rising edges
/// of the input, giving f_out = f_in / (2*modulus). Modulus changes are
/// latched and take effect at the next output toggle, matching a synchronous
/// ring-counter implementation (no runt pulses when hopping frequencies).
class ToggleDivider : public Component {
 public:
  ToggleDivider(Circuit& c, SignalId in, SignalId out, int modulus, double delay_s);
  void setModulus(int modulus);
  [[nodiscard]] int modulus() const { return modulus_; }

 private:
  Circuit& circuit_;
  SignalId out_;
  double delay_;
  int modulus_;
  int pending_modulus_;
  int count_ = 0;
};

/// Divide-by-N pulse divider for the PLL feedback/reference paths: the
/// output rises every N input rising edges and falls floor(N/2) edges later,
/// so rising-edge spacing (all a PFD sees) is exactly N input periods.
class DivideByN : public Component {
 public:
  DivideByN(Circuit& c, SignalId in, SignalId out, int n, double delay_s);
  [[nodiscard]] int n() const { return n_; }
  /// Fork support (see Circuit::copyStateFrom): take `source`'s state.
  void copyStateFrom(const DivideByN& source) { count_ = source.count_; }

 private:
  Circuit& circuit_;
  SignalId out_;
  double delay_;
  int n_;
  int count_ = 0;
};

/// Gated rising-edge counter (the BIST frequency/phase counters). start()
/// zeroes and arms it; stop() freezes the count.
class GatedCounter : public Component {
 public:
  GatedCounter(Circuit& c, SignalId in);
  void start() { count_ = 0; running_ = true; }
  void stop() { running_ = false; }
  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] long count() const { return count_; }
  /// Fork support (see Circuit::copyStateFrom): take `source`'s state.
  void copyStateFrom(const GatedCounter& source) {
    count_ = source.count_;
    running_ = source.running_;
  }

 private:
  long count_ = 0;
  bool running_ = false;
};

/// Records rising/falling edge timestamps of a signal for offline analysis.
class EdgeRecorder : public Component {
 public:
  EdgeRecorder(Circuit& c, SignalId in);
  [[nodiscard]] const std::vector<double>& risingEdges() const { return rising_; }
  [[nodiscard]] const std::vector<double>& fallingEdges() const { return falling_; }
  void clear() { rising_.clear(); falling_.clear(); }

 private:
  std::vector<double> rising_;
  std::vector<double> falling_;
};

}  // namespace pllbist::sim
