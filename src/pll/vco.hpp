#pragma once

#include <cstdint>

#include "pll/pump_filter.hpp"

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

/// Behavioral VCO built around a phase accumulator, with the feedback
/// divider fused in. Between pump drive changes the control voltage moves
/// only on the (slow) filter time constant, so the instantaneous frequency
/// is treated as constant over each integration segment; the accumulator is
/// re-integrated and the next edge re-aimed at *every* pump edge
/// (driveChanged). Pump pulses far narrower than a VCO period therefore
/// still contribute their exact time-share of phase — crucial, because in
/// lock the pump pulses are synchronised with the VCO edges and a
/// sample-and-hold VCO would alias them away entirely (producing a
/// spurious static frequency offset).
///
/// Half-cycle h of the output sits at phase h/2 (even h rising, h = 0 the
/// start). The divider's output (PLLFB, before its delay) rises at output
/// rising edge r when r mod n == 0 and falls at the one where
/// r mod n == floor(n/2): the waveform sim::DivideByN would make from the
/// output. n == 1 mirrors every half-cycle.
///
/// A plain value type: its owner (pll::CpPll) stops it at nextEdgeTime()
/// with fire(), and only at the half-cycles something can see:
///  - while the filter is driven, at every half-cycle, where it re-samples
///    the control voltage;
///  - while the output is observed, at every half-cycle;
///  - otherwise the control voltage is frozen, no sample can change the
///    frequency, and it aims straight at the next half-cycle the divider
///    reacts to. The half-cycles in between pass with the phase.
/// The choice is made at every aim. Counting rising edges needs no
/// observer: risingEdgesBy() reads them off the phase accumulator.
class Vco {
 public:
  /// The oscillator starts (half-cycle 0, a rising edge) at `start_time_s`.
  Vco(const VcoConfig& cfg, int divider_n, double start_time_s);

  /// What one half-cycle does: the output's new level and, when the
  /// divider reacts, PLLFB's new level.
  struct Edge {
    bool rising;
    bool fb_changes;
    bool fb_rising;
  };

  /// When the aimed half-cycle happens (the start, before the first fire).
  [[nodiscard]] double nextEdgeTime() const { return aim_time_; }

  /// The aimed half-cycle happens now (now == nextEdgeTime()): advance the
  /// phase, re-aim, and report the edge. `observed` is whether the output
  /// has observers.
  Edge fire(double now, PumpFilter& filter, bool observed);

  /// The filter's drive changed at `now`: integrate the phase up to now,
  /// re-sample the control voltage and re-aim.
  void driveChanged(double now, PumpFilter& filter, bool observed);

  /// Ground-truth instantaneous frequency (for probes and tests; the BIST
  /// itself never reads this — it only sees edges).
  [[nodiscard]] double currentFrequencyHz() const { return frequency_hz_; }

  /// Rising edges of the output at or before t (t >= the VCO's last event
  /// or drive change, e.g. the circuit's now()), the start edge included:
  /// what a gated edge counter on an observed output would have counted.
  [[nodiscard]] uint64_t risingEdgesBy(double t) const;

  [[nodiscard]] const VcoConfig& config() const { return cfg_; }

 private:
  void integrateTo(double t);
  /// Half-cycle `half` happens now: re-aim, then report what it drives.
  Edge edge(uint64_t half, double now, PumpFilter& filter, bool observed);
  void retarget(double now, bool resample, PumpFilter& filter, bool observed);
  /// The half-cycle the next stop must be at.
  [[nodiscard]] uint64_t nextAim(const PumpFilter& filter, bool observed) const;
  /// Half-cycles passed by time t: those before next_half_, plus the
  /// skipped ones whose phase the accumulator has reached by t.
  [[nodiscard]] uint64_t passedHalves(double t) const;

  VcoConfig cfg_;
  uint64_t divider_n_;
  bool started_ = false;
  double phase_cycles_ = 0.0;   ///< accumulated output phase in cycles
  uint64_t next_half_ = 0;      ///< first half-cycle not yet passed
  uint64_t aim_half_ = 0;       ///< half-cycle the next stop is at
  double aim_time_;             ///< when it happens
  double last_t_ = 0.0;
  double frequency_hz_ = 0.0;   ///< frequency over the current segment
};

}  // namespace pllbist::pll
