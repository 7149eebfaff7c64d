#pragma once

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

/// Behavioral VCO built around a phase accumulator. Between pump drive
/// changes the control voltage moves only on the (slow) filter time
/// constant, so the instantaneous frequency is treated as constant over
/// each integration segment; the accumulator is re-integrated and the next
/// output toggle re-aimed at *every* pump edge. Pump pulses far narrower
/// than a VCO period therefore still contribute their exact time-share of
/// phase — crucial, because in lock the pump pulses are synchronised with
/// the VCO edges and a sample-and-hold VCO would alias them away entirely
/// (producing a spurious static frequency offset).
class Vco : public sim::Component, private sim::Circuit::Handler {
 public:
  Vco(sim::Circuit& c, PumpFilter& filter, sim::SignalId out, const VcoConfig& cfg,
      double start_time_s = 0.0);

  /// Ground-truth instantaneous frequency (for probes and tests; the BIST
  /// itself never reads this — it only sees edges).
  [[nodiscard]] double currentFrequencyHz() const { return frequency_hz_; }

  [[nodiscard]] const VcoConfig& config() const { return cfg_; }

 private:
  /// The first event starts the oscillator; every later one is a toggle
  /// tagged with the generation that aimed it.
  bool onEvent(uint32_t tag, double now) override;
  void start(double now);
  void integrateTo(double t);
  void retarget(double now);

  sim::Circuit& circuit_;
  sim::Circuit::HandlerId handler_;
  PumpFilter& filter_;
  sim::SignalId out_;
  VcoConfig cfg_;
  bool started_ = false;
  double phase_cycles_ = 0.0;   ///< accumulated output phase in cycles
  double next_toggle_phase_ = 0.5;
  double last_t_ = 0.0;
  double frequency_hz_ = 0.0;   ///< frequency over the current segment
  uint32_t generation_ = 0;     ///< invalidates superseded toggle events
};

}  // namespace pllbist::pll
