#pragma once

#include <vector>

#include "bist/dco.hpp"
#include "sim/circuit.hpp"

namespace pllbist::bist {

/// Stimulus waveform shapes evaluated in the paper's Figures 11/12.
enum class StimulusWaveform {
  MultiToneFsk,  ///< M-step sampled-sine FSK ("Multi Tone FS")
  TwoToneFsk,    ///< +/- deviation square FSK ("Two Tone FS")
};

/// Drives a Dco through a discrete FM program: each modulation period is
/// divided into `steps` equal slots and the DCO is retargeted at every slot
/// boundary to f_nom + deviation * sin(2*pi*slot/steps) (multi-tone) or to
/// the square-wave equivalent (two-tone). The achievable frequencies are
/// quantised by the DCO modulus, exactly as in the hardware.
///
/// A marker pulse is emitted on `peak_marker` when the *program* crosses its
/// positive crest (slot = steps/4 boundary) — the mux-control decode the
/// Table 2 sequence starts its phase counter from.
class FskModulator : public sim::Component, private sim::Circuit::Handler {
 public:
  struct Config {
    StimulusWaveform waveform = StimulusWaveform::MultiToneFsk;
    int steps = 10;                ///< program slots per modulation period
    double nominal_hz = 1000.0;    ///< carrier (PLL reference) frequency
    double deviation_hz = 10.0;    ///< peak program deviation
    double marker_pulse_s = 1e-6;
    void validate() const;
  };

  FskModulator(sim::Circuit& c, Dco& dco, sim::SignalId peak_marker, const Config& cfg);

  /// Begin modulating at `modulation_hz` from the current circuit time
  /// (slot 0 starts immediately). Replaces any running program.
  void start(double modulation_hz);

  /// Stop modulating; the DCO returns to the nominal carrier.
  void stop();

  /// Stop modulating and park the DCO at nominal + deviation (the crest
  /// frequency, held statically) for DC reference measurements.
  void park();

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] double modulationHz() const { return modulation_hz_; }
  [[nodiscard]] const Config& config() const { return cfg_; }

  /// The ideal (pre-quantisation) program frequency at slot k.
  [[nodiscard]] double programFrequency(int slot) const;

  /// Fork support (see sim::Circuit::copyStateFrom): take `source`'s
  /// state. The DCO copies its own.
  void copyStateFrom(const FskModulator& source) {
    modulation_hz_ = source.modulation_hz_;
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
  Dco& dco_;
  sim::SignalId peak_marker_;
  Config cfg_;
  double modulation_hz_ = 0.0;
  bool running_ = false;
  uint32_t generation_ = 0;  ///< invalidates scheduled slots of old programs
  int slot_ = 0;             ///< program slot the DCO is currently set to
};

}  // namespace pllbist::bist
