#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/circuit.hpp"
#include "sim/primitives.hpp"

namespace pllbist::bist {

/// Digitally-controlled oscillator for on-chip stimulus generation
/// (paper section 3, Figure 4): a ring counter divides a fast master clock
/// down to a set of discrete frequencies centred on the nominal PLL
/// reference; hopping between set members produces discrete FM.
///
/// Output rising edges land exactly on master-clock ticks (rising edge
/// every `modulus` ticks, falling edge floor(modulus/2) ticks later), and a
/// new modulus is latched only at an output rising edge — the synchronous
/// mux switching that avoids runt pulses. The implementation schedules the
/// edges arithmetically instead of simulating 10^6 master transitions per
/// second; the emitted waveform is tick-for-tick identical to the counter
/// it models. Since a modulus is latched only at a rising edge, the next
/// edge is always decided: pulled (sim::ReferenceSource), the DCO's rising
/// and falling edges are its puller's instants and it schedules no kernel
/// event at all.
class Dco : public sim::Component, public sim::ReferenceSource, private sim::Circuit::Handler {
 public:
  struct Config {
    double master_clock_hz = 1e6;
    int initial_modulus = 1000;
    double start_time_s = 0.0;
    void validate() const;
  };

  Dco(sim::Circuit& c, sim::SignalId out, const Config& cfg,
      sim::SourceMode mode = sim::SourceMode::Drive);

  /// Request an output frequency; the nearest achievable modulus is latched
  /// at the next output rising edge. Returns the frequency that will
  /// actually be produced. Throws std::invalid_argument for frequencies
  /// outside (0, master/2].
  double setFrequency(double hz);

  /// Program a modulus directly.
  void setModulus(int modulus);

  /// Frequency corresponding to the currently *pending* modulus.
  [[nodiscard]] double pendingFrequency() const;

  /// Nearest achievable frequency to `hz` (the set-member quantisation).
  [[nodiscard]] double quantize(double hz) const;
  [[nodiscard]] int modulusFor(double hz) const;
  [[nodiscard]] double frequencyOf(int modulus) const;

  /// Local frequency resolution |f(m) - f(m+1)| around output frequency f.
  [[nodiscard]] double resolutionAt(double hz) const;

  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Fork support (see sim::Circuit::copyStateFrom): take `source`'s state.
  void copyStateFrom(const Dco& source) {
    tick_ = source.tick_;
    modulus_ = source.modulus_;
    pending_modulus_ = source.pending_modulus_;
    copySourceStateFrom(source);
  }

  /// The decided falling edge comes before the next rising edge.
  [[nodiscard]] double nextInstant() const override {
    return std::min(decidedEdge(), static_cast<double>(tick_) * tick_s_);
  }
  bool advance(double now) override;

  /// Paper eqn (2): achievable resolution at a nominal input frequency
  /// given the master reference:  Fres = Fin^2 / (Fref + Fin).
  static double resolutionEq2(double fin_nominal_hz, double fref_master_hz);

 private:
  /// Every event is the next output rising edge (the tag is unused).
  bool onEvent(uint32_t tag, double now) override;
  /// The rising edge at tick_: latch the pending modulus and move tick_ to
  /// the next rising edge. Returns when the output falls.
  double rise();

  sim::Circuit& circuit_;
  sim::Circuit::HandlerId handler_;
  sim::SignalId out_;
  Config cfg_;
  double tick_s_ = 0.0;
  std::int64_t tick_ = 0;  ///< master-clock tick index of the next rising edge
  int modulus_ = 0;
  int pending_modulus_ = 0;
};

}  // namespace pllbist::bist
