#pragma once

#include <cstdint>

#include "pll/pump_filter.hpp"
#include "sim/circuit.hpp"
#include "sim/primitives.hpp"

namespace pllbist::pll {

/// Voltage-controlled oscillator behavioral parameters.
struct VcoConfig {
  double center_frequency_hz = 0.0;  ///< output frequency at v_center
  double gain_hz_per_v = 0.0;        ///< Kv (Ko = 2*pi*gain in rad/s/V)
  double v_center_v = 2.5;           ///< control voltage giving the center frequency
  double min_frequency_hz = 1.0;     ///< lower clamp (tuning-range nonlinearity)
  double max_frequency_hz = 0.0;     ///< upper clamp; 0 => 2x center

  void validate() const;

  /// Static tuning law: clamped linear characteristic.
  [[nodiscard]] double frequencyAt(double control_v) const;
};

/// The feedback divider fused into the VCO (see Vco). PLLFB rises
/// `delay_s` after output rising edge r when r mod n == 0 and falls
/// `delay_s` after the one where r mod n == max(1, floor(n/2)): the
/// waveform sim::DivideByN would make from the VCO output. n == 1 mirrors
/// every half-cycle.
struct VcoDivider {
  sim::SignalId out = sim::kNoSignal;  ///< PLLFB; kNoSignal for a bare VCO
  int n = 1;
  double delay_s = 1e-9;
};

/// Behavioral VCO built around a phase accumulator. Between pump drive
/// changes the control voltage moves only on the (slow) filter time
/// constant, so the instantaneous frequency is treated as constant over
/// each integration segment; the accumulator is re-integrated and the next
/// event re-aimed at *every* pump edge. Pump pulses far narrower than a VCO
/// period therefore still contribute their exact time-share of phase —
/// crucial, because in lock the pump pulses are synchronised with the VCO
/// edges and a sample-and-hold VCO would alias them away entirely
/// (producing a spurious static frequency offset).
///
/// Half-cycle h of the output sits at phase h/2 (even h rising, h = 0 the
/// start). The VCO drives its feedback divider's output directly and only
/// simulates the half-cycles something can see:
///  - while the filter is driven it stops at every half-cycle and
///    re-samples the control voltage there;
///  - while `out` has observers (Circuit::hasObservers) it stops at every
///    half-cycle and writes `out`;
///  - otherwise the control voltage is frozen, no sample can change the
///    frequency, and the next event aims straight at the next half-cycle
///    the divider reacts to. The half-cycles in between pass with the phase.
///    (A VCO without a divider, or with n == 1, stops at every half-cycle.)
/// The choice is made at every aim, so an observer added mid-run takes
/// effect at the next one. Counting rising edges needs no observer:
/// risingEdgesBy() reads them off the phase accumulator.
class Vco : public sim::Component, private sim::Circuit::Handler {
 public:
  Vco(sim::Circuit& c, PumpFilter& filter, sim::SignalId out, const VcoConfig& cfg,
      double start_time_s = 0.0, VcoDivider divider = {});

  /// Ground-truth instantaneous frequency (for probes and tests; the BIST
  /// itself never reads this — it only sees edges).
  [[nodiscard]] double currentFrequencyHz() const { return frequency_hz_; }

  /// Rising edges of the output at or before t (t >= the VCO's last event
  /// or drive change, e.g. the circuit's now()), the start edge included:
  /// what a gated edge counter on an observed output would have counted.
  [[nodiscard]] uint64_t risingEdgesBy(double t) const;

  [[nodiscard]] const VcoConfig& config() const { return cfg_; }

  /// Fork support (see sim::Circuit::copyStateFrom): take `source`'s state.
  void copyStateFrom(const Vco& source);

 private:
  /// The first event starts the oscillator; every later one is the aimed
  /// half-cycle, tagged with the generation that aimed it.
  bool onEvent(uint32_t tag, double now) override;
  void start(double now);
  void integrateTo(double t);
  /// Half-cycle `half` happens now: write `out` if observed, aim the next
  /// event, then drive the divider output.
  void edge(uint64_t half, double now);
  void retarget(double now, bool resample);
  /// The half-cycle the next event must stop at.
  [[nodiscard]] uint64_t nextAim() const;
  /// Half-cycles passed by time t: those before next_half_, plus the
  /// skipped ones whose phase the accumulator has reached by t.
  [[nodiscard]] uint64_t passedHalves(double t) const;

  sim::Circuit& circuit_;
  sim::Circuit::HandlerId handler_;
  PumpFilter& filter_;
  sim::SignalId out_;
  VcoConfig cfg_;
  VcoDivider divider_;
  bool started_ = false;
  double phase_cycles_ = 0.0;   ///< accumulated output phase in cycles
  uint64_t next_half_ = 0;      ///< first half-cycle not yet passed
  uint64_t aim_half_ = 0;       ///< half-cycle the pending event stops at
  double last_t_ = 0.0;
  double frequency_hz_ = 0.0;   ///< frequency over the current segment
  uint32_t generation_ = 0;     ///< invalidates superseded events
};

}  // namespace pllbist::pll
