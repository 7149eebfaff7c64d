#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "pll/config.hpp"
#include "pll/pfd.hpp"
#include "pll/pump_filter.hpp"
#include "pll/vco.hpp"
#include "sim/circuit.hpp"
#include "sim/primitives.hpp"
#include "sim/reference_source.hpp"

namespace pllbist::pll {

/// A listener on the loop's internal edges (CpPll::addTap). The loop calls
/// it directly, in place of a callback on a net it does not write.
class LoopTap {
 public:
  LoopTap() = default;
  LoopTap(const LoopTap&) = delete;
  LoopTap& operator=(const LoopTap&) = delete;

  /// PLLREF (fb = false) or PLLFB (fb = true) rises at time t. The loop
  /// calls this when it decides the edge, one mux delay before t; t never
  /// decreases from call to call.
  virtual void inputRose(bool /*fb*/, double /*t*/) {}
  /// The in-loop PFD's UP (dn = false) or DN output changed to `high` at
  /// `now`, the circuit's time. Return true when the change altered state
  /// that a caller's step loop polls (LockDetector::isLocked): the loop
  /// then ends its run-ahead after this instant, so the step that made the
  /// change returns at its time.
  virtual bool pumpChanged(bool /*dn*/, bool /*high*/, double /*now*/) { return false; }

 protected:
  ~LoopTap() = default;
};

/// Assembled charge-pump PLL with the two test multiplexers of the paper's
/// Figure 6 built in:
///
///   M1 (input mux):  PLLREF := test_mode ? test_stimulus : external_ref
///   M2 (hold mux):   PFD feedback input := hold ? PLLREF : PLLFB
///
/// Asserting hold feeds the identical signal to both PFD inputs; the
/// tri-state pump then only sees dead-zone glitches and the VCO frequency
/// freezes at its current value (section 4, observation (3)) — the
/// mechanism the BIST uses to park the output at its peak for unhurried
/// frequency counting.
///
/// The loop is one state machine and one Circuit::Handler. M1 takes the
/// REF edges from the test stimulus or the ÷R external reference heard on
/// their nets (the first constructor), or pulls the test stimulus from a
/// sim::ReferenceSource (the second), whose instants are then the loop's
/// own. It makes the FB edges with the VCO's fused divider, and adds the
/// 1 ns M1, divider and M2 delays itself. Pfd, PumpFilter and Vco are plain classes it calls.
/// Its instants are the PFD flop writes, the VCO stops and the pulled
/// stimulus's instants, in that order when they tie. It keeps one handler
/// event in flight, at its next instant; when that event runs, the loop
/// also runs ahead through every later instant strictly before
/// Circuit::horizon(), the next queued event or the end of the run, since
/// nothing else can see them. An instant that ties the horizon, or follows
/// one whose tap change a step loop polls (LoopTap::pumpChanged), goes
/// through the queue again. Whatever the loop schedules while it runs
/// ahead (an observed net's write, a tap's event) is queued and so shortens
/// the horizon. A select change, or an edge heard on an input net, that
/// brings the next instant forward moves the pending event
/// (Circuit::rescheduleEvent), so no event is superseded. The loop counts
/// its work units, the PFD writes it applies and its VCO stops, since
/// kernel events no longer do. The select nets `test_mode` and `hold` are
/// nets; a select change re-drives the mux output as a mux would. The
/// other loop nets (PLLREF, PLLFB, the PFD's inputs, outputs and reset, the
/// VCO output) are written only while they have observers
/// (Circuit::hasObservers), at the times and with the values the netlist
/// would write them; a fault rule on them reaches those observers but not
/// the loop. A pulled stimulus's net is written by its source while
/// observed or named by a fault rule (sim::ReferenceSource); while a rule
/// names it, M1 hears the net instead of the pulled edges, so the rule
/// reaches the loop. Listeners that need the loop's edges register as a LoopTap.
///
/// M2's output is decided with the hold select as it is when M2's input
/// change is decided, one mux delay before that change happens; a hold
/// change inside that window takes the decision back and decides again.
/// An observer of pfdFeedbackIn() still sees the write made before the
/// second decision.
class CpPll : private sim::Circuit::Handler {
 public:
  /// M1's inputs heard on nets: the external reference (through a ÷R
  /// sim::DivideByN) and the test stimulus.
  CpPll(sim::Circuit& c, sim::SignalId external_ref, sim::SignalId test_stimulus,
        const PllConfig& cfg, const std::string& prefix = "pll");
  /// M1's test input pulled from `test_stimulus`, a pulled source that
  /// nothing else pulls and that outlives the loop. No external reference
  /// drives the normal input: it stays low.
  CpPll(sim::Circuit& c, sim::ReferenceSource& test_stimulus, const PllConfig& cfg,
        const std::string& prefix = "pll");

  CpPll(const CpPll&) = delete;
  CpPll& operator=(const CpPll&) = delete;

  /// PLLREF: the reference as seen by the in-loop PFD (post-M1).
  [[nodiscard]] sim::SignalId ref() const { return pllref_; }
  /// PLLFB: the divided VCO output (pre-M2).
  [[nodiscard]] sim::SignalId feedback() const { return pllfb_; }
  /// The PFD's feedback input (post-M2).
  [[nodiscard]] sim::SignalId pfdFeedbackIn() const { return pfd_fb_in_; }
  /// The raw VCO output; while observed the VCO stops at every half-cycle.
  [[nodiscard]] sim::SignalId vcoOut() const { return vco_out_; }
  [[nodiscard]] sim::SignalId pfdUp() const { return up_; }
  [[nodiscard]] sim::SignalId pfdDn() const { return dn_; }
  /// The in-loop PFD's reset net (= UP AND DN delayed).
  [[nodiscard]] sim::SignalId pfdReset() const { return rst_; }

  /// Register a listener; it must outlive the loop's activity.
  void addTap(LoopTap& tap) { taps_.push_back(&tap); }

  /// Drive the M1/M2 selects (take effect immediately at circuit time).
  void setTestMode(bool enabled);
  void setHold(bool enabled);
  [[nodiscard]] bool holdAsserted() const;

  /// Ground-truth probes for verification and tracing; the BIST never calls
  /// these. Both advance the analog state to the circuit's current time.
  double controlVoltageNow();
  double vcoFrequencyNowHz();

  /// Work units since construction (a fork continues its source's): PFD
  /// flop writes applied (a clock edge the reset blocked is none) and VCO
  /// stops.
  [[nodiscard]] uint64_t pfdWrites() const { return pfd_writes_; }
  [[nodiscard]] uint64_t vcoStops() const { return vco_stops_; }

  [[nodiscard]] const PllConfig& config() const { return cfg_; }
  [[nodiscard]] PumpFilter& filter() { return filter_; }
  [[nodiscard]] const Vco& vco() const { return vco_; }

  /// Fork support (see sim::Circuit::copyStateFrom): take `source`'s state.
  void copyStateFrom(const CpPll& source);

 private:
  /// What both constructors share; M1's inputs are wired by the caller.
  CpPll(sim::Circuit& c, sim::SignalId test_stimulus, const PllConfig& cfg,
        const std::string& prefix);
  bool onEvent(uint32_t tag, double now) override;
  /// The loop's next instant: a PFD write, a VCO stop or the pulled
  /// stimulus's.
  [[nodiscard]] double nextInstant() const;
  /// Run the pulled stimulus's instant at now; false when none was due.
  bool advanceStimulus(double now);
  /// The level M1 passes from its test (true) or normal input.
  [[nodiscard]] bool inputLevel(bool test) const;
  /// Move the pending handler event to the next instant.
  void aim();
  /// M1's test (true) or normal input net changed to v at now.
  void heard(bool test, double now, bool v);
  /// M1 writes PLLREF := v at time x.
  void refWrite(double x, bool v);
  /// The divider writes PLLFB := v at time x.
  void fbWrite(double x, bool v);
  /// M2 writes the PFD's feedback input := v at time y.
  void fbInWrite(double y, bool v);
  void holdChanged(double now, bool hold);
  /// Apply the PFD's next write, due now; false when the reset blocked it.
  /// Sets `hand_back` when a tap changed what a step loop polls.
  bool applyPfdWrite(double now, bool& hand_back);
  void fireVco(double now);
  [[nodiscard]] bool observed(sim::SignalId net) const { return circuit_.hasObservers(net); }

  sim::Circuit& circuit_;
  PllConfig cfg_;
  sim::Circuit::HandlerId handler_;

  sim::SignalId test_stimulus_;
  sim::SignalId test_mode_sel_;
  sim::SignalId hold_sel_;
  sim::SignalId pllref_;
  sim::SignalId pfd_fb_in_;
  sim::SignalId vco_out_;
  sim::SignalId pllfb_;
  sim::SignalId divided_ext_ref_;
  sim::SignalId up_;
  sim::SignalId dn_;
  sim::SignalId rst_;

  std::unique_ptr<sim::DivideByN> ref_divider_;  ///< ÷R on the heard external net
  sim::ReferenceSource* test_source_ = nullptr;   ///< the pulled test stimulus
  Pfd pfd_;
  PumpFilter filter_;
  Vco vco_;
  TimedNet ref_net_;    ///< PLLREF
  TimedNet fb_net_;     ///< PLLFB
  TimedNet fb_in_net_;  ///< the PFD's feedback input
  double pending_;      ///< time of the handler event in flight
  /// The pulled stimulus's next instant; the source moves it only when
  /// advanced.
  double stimulus_next_ = std::numeric_limits<double>::infinity();
  uint64_t pfd_writes_ = 0;
  uint64_t vco_stops_ = 0;
  std::vector<LoopTap*> taps_;
};

}  // namespace pllbist::pll
