#pragma once

#include <string>
#include <vector>

#include "pll/config.hpp"
#include "pll/pfd.hpp"
#include "pll/pump_filter.hpp"
#include "pll/vco.hpp"
#include "sim/circuit.hpp"
#include "sim/primitives.hpp"

namespace pllbist::testing {

/// Gate-level oracles. The library's phase detectors, frequency counter and
/// loop are behavioural; these primitives build the netlists they replace,
/// so the differential tests can check them transition for transition.

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

/// out = sel ? b : a after delay. Re-drives the output when sel or the
/// selected input changes; a change of the unselected input writes nothing
/// (the netlist would re-write the value the output already carries).
class Mux2 : public sim::Component {
 public:
  Mux2(sim::Circuit& c, sim::SignalId a, sim::SignalId b, sim::SignalId sel, sim::SignalId out,
       double delay_s);
};

/// The tri-state PFD as gates: two D flip-flops with D tied high and an
/// asynchronous reset, plus the reset AND.
struct GatePfd {
  sim::SignalId up;
  sim::SignalId dn;
  sim::SignalId rst;
  sim::SignalId high;
  DFlipFlop ff_up;
  DFlipFlop ff_dn;
  AndGate reset_and;

  GatePfd(sim::Circuit& c, sim::SignalId ref, sim::SignalId fb, const pll::PfdDelays& d,
          const std::string& prefix);
};

/// The loop's pump/filter and VCO wired the way the netlist loop wired
/// them: the filter follows the UP/DN nets, and the VCO is a handler whose
/// event is re-aimed at every drive change (the old one is superseded). It
/// writes `out` while observed and drives its divider's output `fb` one
/// `delay_s` late (pass sim::kNoSignal for no divider net).
class NetVco : public sim::Component, private sim::Circuit::Handler {
 public:
  NetVco(sim::Circuit& c, sim::SignalId up, sim::SignalId dn, sim::SignalId out, sim::SignalId fb,
         const pll::PumpFilterConfig& filter, const pll::VcoConfig& vco, int n, double delay_s);

  [[nodiscard]] pll::PumpFilter& filter() { return filter_; }
  [[nodiscard]] const pll::Vco& vco() const { return vco_; }

 private:
  bool onEvent(uint32_t tag, double now) override;
  void driveChanged(bool dn, bool on, double now);
  void aim();

  sim::Circuit& circuit_;
  sim::Circuit::HandlerId handler_;
  sim::SignalId out_;
  sim::SignalId fb_;
  double delay_;
  pll::PumpFilter filter_;
  pll::Vco vco_;
  bool started_ = false;
  uint32_t generation_ = 0;  ///< invalidates superseded events
};

/// The CP-PLL as the netlist pll::CpPll replaces, in test mode: M1 (the
/// stimulus, or a constant-low normal input) into PLLREF, the gate PFD,
/// the net-wired pump/filter and VCO writing PLLFB, and M2 selecting PLLFB
/// or PLLREF into the PFD's feedback input. Every mux and the divider
/// delay 1 ns, as in CpPll.
struct NetlistLoop {
  static constexpr double kMuxDelay = 1e-9;
  sim::SignalId idle_ref;
  sim::SignalId test_mode;
  sim::SignalId hold;
  sim::SignalId pllref;
  sim::SignalId pfd_fb_in;
  sim::SignalId vco_out;
  sim::SignalId pllfb;
  Mux2 input_mux;
  GatePfd pfd;
  NetVco vco;
  Mux2 hold_mux;

  NetlistLoop(sim::Circuit& c, sim::SignalId stimulus, const pll::PllConfig& cfg);
};

/// A plain pll::Pfd run over given REF and FB rising-edge times, with every
/// write applied up to `end`: the transitions of UP, DN and the reset AND.
struct PfdRun {
  struct Waveform {
    std::vector<double> rising;
    std::vector<double> falling;
    bool operator==(const Waveform&) const = default;
  };
  Waveform up, dn, rst;

  PfdRun(const std::vector<double>& ref, const std::vector<double>& fb, const pll::PfdDelays& d,
         double end);
};

}  // namespace pllbist::testing
