#pragma once

#include <cstdint>
#include <string>

#include "pll/cppll.hpp"
#include "pll/pfd.hpp"
#include "sim/circuit.hpp"
#include "sim/primitives.hpp"

namespace pllbist::bist {

/// Timing of the peak-detector support gates around the monitor PFD.
struct PeakDetectorDelays {
  double clock_delay_s = 2e-9;     ///< buffer from PFDUP to the sampling clock
  double inverter_delay_s = 12e-9; ///< delay+invert on PFDDN (the Figure 7 trick)
  double latch_delay_s = 3e-9;     ///< sampling flop clk->q
  void validate() const;
};

/// The paper's novel output-frequency peak detector (section 4.2, Figure 7).
///
/// A second, monitor-only PFD watches PLLREF against PLLFB. In a locked
/// CP-PLL the capacitor voltage integrates the phase error, so the VCO
/// frequency is at an extremum exactly when the phase error crosses zero —
/// i.e. when the lead/lag relationship between the PFD inputs reverses.
/// A flop samples the delayed-and-inverted PFDDN on (delayed) PFDUP rising
/// edges: the inverter delay makes the sample look *backwards* past the
/// dead-zone glitch, so near-coincident edges cannot corrupt it.
///
/// The resulting MFREQ net is high while PLLREF leads (VCO frequency
/// rising); its falling edge marks the output-frequency *maximum*, the
/// rising edge the minimum. Subscribers use those edges to stop the phase
/// counter and trigger loop hold (Table 2 stages 2-3).
///
/// The monitor is a pll::Pfd, the same model as the loop PFD. The detector
/// adds only what Figure 7 puts around it: the clock buffer, the look-back
/// through the delaying inverter, and the sampling flop. It advances on
/// PLLREF/PLLFB rising edges, which the loop hands it directly (a
/// pll::LoopTap) when it decides them, one mux delay ahead: an input edge
/// at t can change the monitor's UP or DN no earlier than t + clk-to-q, so
/// every monitor write up to that instant is settled. Each UP rise derives
/// its sampling clock (UP rise + clock delay) and reads DN through the
/// inverter's delay from a pll::TimedNet of the DN changes no sample has
/// looked past yet; the only event it schedules is the MFREQ write. A
/// write that cannot change MFREQ is not made: one whose value equals both
/// MFREQ's level and the detector's last scheduled write, while no
/// interceptor can drop or reorder a transition of MFREQ
/// (Circuit::interceptionPending): no fault rule or glitch names MFREQ, no
/// unscoped interceptor is installed, and no delayed MFREQ write is queued.
/// Otherwise every sampling clock writes MFREQ, so a fault rule on MFREQ
/// sees every write the flop makes, and a write a rule dropped or delayed
/// is never mistaken for one that landed. The monitor's UP, DN and reset nets are
/// written only while something observes them (Circuit::hasObservers), like
/// the loop's nets; a fault rule on them reaches those observers but not
/// the monitor. An observer attached mid-run sees the nets from their next
/// write on.
class PeakDetector : public sim::Component,
                     public pll::LoopTap,
                     private sim::Circuit::Handler {
 public:
  /// Taps `pll`'s PLLREF and PLLFB; the monitor PFD has the loop PFD's
  /// delays.
  PeakDetector(sim::Circuit& c, pll::CpPll& pll, const PeakDetectorDelays& delays = {},
               const std::string& prefix = "peakdet");
  /// A detector wired to nothing: its owner feeds it through inputRose().
  PeakDetector(sim::Circuit& c, const pll::PfdDelays& pfd_delays,
               const PeakDetectorDelays& delays, const std::string& prefix = "peakdet");

  /// A rising edge on PLLREF (fb = false) or PLLFB (fb = true) at time t:
  /// t >= the circuit's time, and never decreases from call to call.
  void inputRose(bool fb, double t) override;

  /// High while PLLREF leads (output frequency increasing).
  [[nodiscard]] sim::SignalId mfreq() const { return mfreq_; }
  /// Monitor-PFD outputs and reset net, written only while observed (the
  /// Figure 8 waveform dumps).
  [[nodiscard]] sim::SignalId monitorUp() const { return up_; }
  [[nodiscard]] sim::SignalId monitorDn() const { return dn_; }
  [[nodiscard]] sim::SignalId monitorReset() const { return rst_; }

  /// Subscribe to output-frequency extremum events.
  void onMaxFrequency(sim::Circuit::EdgeCallback cb);
  void onMinFrequency(sim::Circuit::EdgeCallback cb);

  /// Fork support (see sim::Circuit::copyStateFrom): take `source`'s state.
  void copyStateFrom(const PeakDetector& source);

 private:
  /// Wakes the detector at a flop reset while the reset net is observed, so
  /// its falling write is made on time.
  bool onEvent(uint32_t tag, double now) override;
  /// Apply the monitor's writes due at or before t, and write the observed
  /// monitor nets.
  void settle(double t);
  /// The sampling flop clocked by the UP rise at `up_rise`.
  void sample(double up_rise);

  sim::Circuit& circuit_;
  sim::Circuit::HandlerId handler_;
  PeakDetectorDelays delays_;
  sim::SignalId up_;
  sim::SignalId dn_;
  sim::SignalId rst_;
  sim::SignalId mfreq_;

  pll::Pfd monitor_;
  pll::TimedNet dn_late_;  ///< monitor DN through the inverter's delay, not yet inverted
  bool last_write_ = false;  ///< the value of the last MFREQ write scheduled
};

}  // namespace pllbist::bist
