#pragma once

#include "bist/dco.hpp"
#include "bist/stimulus_program.hpp"
#include "pll/sources.hpp"

namespace pllbist::bist {

/// Stimulus waveform shapes evaluated in the paper's Figures 11/12.
enum class StimulusWaveform {
  MultiToneFsk,  ///< M-step sampled-sine FSK ("Multi Tone FS")
  TwoToneFsk,    ///< +/- deviation square FSK ("Two Tone FS")
};

/// Drives a Dco through a discrete FM program (paper section 3, Figure 4):
/// each modulation period is divided into `steps` equal slots and the DCO
/// is retargeted at every slot boundary to
/// f_nom + deviation * sin(2*pi*slot/steps) (multi-tone) or to the
/// square-wave equivalent (two-tone). The achievable frequencies are
/// quantised by the DCO modulus, exactly as in the hardware.
///
/// A marker pulse is emitted on `peak_marker` when the *program* crosses its
/// positive crest (a quarter period, plus the half-slot lag of the
/// staircase) — the mux-control decode the Table 2 sequence starts its
/// phase counter from. Idle, the DCO sits at the nominal carrier; parked,
/// at nominal + deviation (the crest frequency, held statically).
class FskModulator : public SlotProgram {
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

  [[nodiscard]] const Config& config() const { return cfg_; }

  /// The ideal (pre-quantisation) program frequency at slot k.
  [[nodiscard]] double programFrequency(int slot) const;

 private:
  void select(int slot) override { dco_.setFrequency(programFrequency(slot)); }
  void idle(bool parked) override {
    dco_.setFrequency(parked ? cfg_.nominal_hz + cfg_.deviation_hz : cfg_.nominal_hz);
  }

  Dco& dco_;
  Config cfg_;
};

/// Drives a pll::SineFmSource through the ideal sine-FM program (the
/// paper's Figure 3 bench generator, the "Pure Sine FM" series of Figures
/// 11/12): f_nom + deviation * sin(2*pi*fm*(t - start)). No slots, so no
/// half-slot lag: the marker pulses at every positive crest. Idle, the
/// source sits at the nominal carrier; parked, at nominal + deviation.
class SineFmProgram : public StimulusProgram {
 public:
  struct Config {
    double nominal_hz = 1000.0;    ///< carrier (PLL reference) frequency
    double deviation_hz = 10.0;    ///< peak frequency deviation
    double marker_pulse_s = 1e-6;
    void validate() const;
  };

  SineFmProgram(sim::Circuit& c, pll::SineFmSource& source, sim::SignalId peak_marker,
                const Config& cfg);

  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  void begin(double now) override;
  /// The next crest is one period on (re-deriving the phase with fmod would
  /// accumulate round-off and can collapse the wait to ~0).
  void crested(double now) override { scheduleMarker(now + 1.0 / modulationHz()); }
  void idle(bool parked) override;

  pll::SineFmSource& source_;
  Config cfg_;
};

}  // namespace pllbist::bist
