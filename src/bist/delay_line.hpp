#pragma once

#include "sim/circuit.hpp"
#include "sim/primitives.hpp"

namespace pllbist::bist {

/// Tapped-delay-line phase modulator — the alternative stimulus the paper
/// flags as further work (section 3: "methods relying on tapped delay line
/// techniques can be used for phase modulation... use of delay line
/// techniques in conjunction with the capture circuitry described in this
/// paper is under further investigation").
///
/// The reference passes through a delay line with `taps` equally spaced
/// taps (spacing `tap_delay_s`); a mux selects the tap per program slot,
/// so the output phase follows a sampled sine between 0 and
/// (taps-1)*tap_delay_s of delay. Discrete *phase* modulation, no DCO
/// needed — but the tone amplitude now depends on absolute delay-line
/// calibration, and the equivalent input frequency deviation scales with
/// the modulation frequency (d(phase)/dt), which is the "tone resolution"
/// complication the paper mentions.
///
/// A marker pulse is emitted at the crest of the equivalent input
/// *frequency* deviation (the phase program's maximum upward slope), so
/// the phase counter measures the same quantity as in the FM test.
class DelayLineModulator : public sim::Component, private sim::Circuit::Handler {
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

  void start(double modulation_hz);
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  /// Peak phase deviation of the program in radians at the reference
  /// frequency: (taps-1)/2 * tap_delay * 2*pi*fref.
  [[nodiscard]] double phaseDeviationRad() const;

  /// Tap selected for program slot k (sampled sine centred mid-line).
  [[nodiscard]] int tapForSlot(int slot) const;

  /// Fork support (see sim::Circuit::copyStateFrom): take `source`'s state.
  void copyStateFrom(const DelayLineModulator& source) {
    modulation_hz_ = source.modulation_hz_;
    current_tap_ = source.current_tap_;
    running_ = source.running_;
    generation_ = source.generation_;
    slot_ = source.slot_;
  }

 private:
  /// Slot boundaries (kind 0) and crest markers (kind 1), tagged with
  /// generationTag(generation_, kind): starting or stopping a program
  /// supersedes every event of the previous one.
  enum Kind : uint32_t { kSlot = 0, kMarker = 1 };
  bool onEvent(uint32_t tag, double now) override;
  void slotBoundary(double now, int slot);

  sim::Circuit& circuit_;
  sim::Circuit::HandlerId handler_;
  sim::SignalId out_;
  sim::SignalId peak_marker_;
  Config cfg_;
  double modulation_hz_ = 0.0;
  int current_tap_ = 0;
  bool running_ = false;
  uint32_t generation_ = 0;
  int slot_ = 0;  ///< program slot the tap is currently set to
};

}  // namespace pllbist::bist
