#pragma once

#include <algorithm>
#include <vector>

#include "bist/slot_program.hpp"
#include "sim/primitives.hpp"
#include "sim/reference_source.hpp"

namespace pllbist::bist {

/// Tapped-delay-line phase modulator — the alternative stimulus the paper
/// flags as further work (section 3: "methods relying on tapped delay line
/// techniques can be used for phase modulation... use of delay line
/// techniques in conjunction with the capture circuitry described in this
/// paper is under further investigation").
///
/// The reference passes through a delay line with `taps` equally spaced
/// taps (spacing `tap_delay_s`); the same stepped program as the FSK
/// stimulus selects a tap per slot instead of a DCO modulus, so the output
/// phase follows a sampled sine between 0 and (taps-1)*tap_delay_s of
/// delay. Discrete *phase* modulation, no DCO needed — but the tone
/// amplitude now depends on absolute delay-line calibration, and the
/// equivalent input frequency deviation scales with the modulation
/// frequency (d(phase)/dt), which is the "tone resolution" complication the
/// paper mentions.
///
/// A marker pulse is emitted at the crest of the equivalent input
/// *frequency* deviation (the phase program's maximum upward slope: the
/// period start, plus the half-slot lag of the staircase), so the phase
/// counter measures the same quantity as in the FM test. Idle and parked
/// alike, the line sits at its mid tap: PM has no DC offset.
///
/// Built over a pulled sim::ClockSource, the line is itself a pulled
/// sim::ReferenceSource: each clock edge is an instant at which the line
/// samples its tap and decides the delayed edge, which is the next
/// instant. Built over a net, it retimes the net's changes with kernel
/// events.
class DelayLineModulator : public SlotProgram, public sim::ReferenceSource {
 public:
  struct Config {
    int taps = 16;              ///< number of selectable taps (>= 2)
    double tap_delay_s = 10e-6; ///< per-tap delay
    int steps = 10;             ///< program slots per modulation period
    double nominal_hz = 1000.0; ///< reference frequency (for validation)
    double marker_pulse_s = 1e-6;
    void validate() const;
  };

  DelayLineModulator(sim::Circuit& c, sim::SignalId in, sim::SignalId out,
                     sim::SignalId peak_marker, const Config& cfg);
  /// The pulled line over `in`, a pulled clock that it alone pulls.
  DelayLineModulator(sim::Circuit& c, sim::ClockSource& in, sim::SignalId out,
                     sim::SignalId peak_marker, const Config& cfg);

  /// The decided edge comes before the next clock edge (Config::validate).
  [[nodiscard]] double nextInstant() const override {
    return clock_ ? std::min(decidedEdge(), clock_->nextInstant()) : decidedEdge();
  }
  bool advance(double now) override;

  /// Peak phase deviation of the program in radians at the reference
  /// frequency: (taps-1)/2 * tap_delay * 2*pi*fref.
  [[nodiscard]] double phaseDeviationRad() const;

  /// Tap selected for program slot k (sampled sine centred mid-line).
  [[nodiscard]] int tapForSlot(int slot) const;

 private:
  /// The tap in use follows from the program (currentTap), so neither a
  /// slot nor the idle setting has anything to latch.
  void select(int) override {}
  void idle(bool) override {}
  [[nodiscard]] int currentTap() const {
    return running() ? slot_taps_[slot()] : (cfg_.taps - 1) / 2;
  }
  /// The line's delay for an input edge now.
  [[nodiscard]] double delay() const {
    return (1.0 + static_cast<double>(currentTap())) * cfg_.tap_delay_s;
  }
  void copyOwnStateFrom(const SlotProgram& source) override;

  Config cfg_;
  std::vector<int> slot_taps_;  ///< tapForSlot(k) for each slot k, read per input edge
  sim::ClockSource* clock_ = nullptr;  ///< the pulled input clock
};

}  // namespace pllbist::bist
