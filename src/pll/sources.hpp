#pragma once

#include <algorithm>
#include <random>

#include "sim/circuit.hpp"
#include "sim/primitives.hpp"
#include "sim/reference_source.hpp"

namespace pllbist::pll {

/// Ideal sinusoidally frequency-modulated square-wave source:
///   f(t) = f_nominal + deviation * sin(2*pi*f_mod*(t - t_start))
///
/// Stands in for the bench-type phase/frequency-modulation generator of the
/// paper's Figure 3 and for the "Pure Sine FM" series of Figures 11/12.
/// The output toggles at half-period granularity with the frequency sampled
/// at each toggle (the modulation is orders of magnitude slower than the
/// carrier, so the staircase error is negligible).
///
/// Its toggles and, under jitter, the emitted edges they decide are its
/// puller's instants (sim::ReferenceSource). The crest marker the Table 2
/// sequence starts its phase counter from is the stimulus program's
/// (bist::SineFmProgram).
class SineFmSource : public sim::Component, public sim::ReferenceSource {
 public:
  struct Config {
    double nominal_hz = 0.0;
    double deviation_hz = 0.0;      ///< peak frequency deviation
    double modulation_hz = 0.0;     ///< modulation (tone) frequency; 0 = CW
    double start_time_s = 0.0;      ///< modulation (and output) start
    /// RMS of Gaussian, non-accumulating edge jitter added to every output
    /// transition (truncated at +/-3 sigma; a fixed 3-sigma insertion delay
    /// keeps causality). 0 disables. Deterministic per `jitter_seed`.
    double edge_jitter_rms_s = 0.0;
    unsigned jitter_seed = 1;
    void validate() const;
  };

  /// True when an edge jittered by `edge_jitter_rms_s` is emitted before
  /// the next toggle at every frequency up to `peak_hz`: its 6-sigma window
  /// is shorter than the shortest half period. Edges then never reorder,
  /// and a pulled source has one decided edge in flight at a time.
  [[nodiscard]] static bool jitterFitsHalfPeriod(double edge_jitter_rms_s, double peak_hz) {
    return 6.0 * edge_jitter_rms_s < 0.5 / peak_hz;
  }

  SineFmSource(sim::Circuit& c, sim::SignalId out, const Config& cfg);

  /// Re-program modulation frequency (takes effect from the next toggle;
  /// modulation phase restarts at the current time). deviation may also be
  /// changed. Passing modulation_hz = 0 reverts to an unmodulated carrier.
  void setModulation(double modulation_hz, double deviation_hz);

  /// Re-program the carrier (nominal) frequency; used to park the source at
  /// a static offset for DC reference measurements.
  void setCarrier(double nominal_hz);

  [[nodiscard]] double instantaneousFrequency(double t) const;
  /// The time at which the modulation phase is zero (the last
  /// setModulation, or the start).
  [[nodiscard]] double modulationEpoch() const { return mod_epoch_; }
  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Fork support (see sim::Circuit::copyStateFrom): take `source`'s
  /// program and timeline, but restart the jitter stream from this
  /// source's own `jitter_seed`, so every fork draws its own jitter. A
  /// decided edge that has not landed yet keeps the source's draw.
  void copyStateFrom(const SineFmSource& source);

  /// The decided edge comes before the next toggle (jitterFitsHalfPeriod).
  [[nodiscard]] double nextInstant() const override {
    return std::min(decidedEdge(), next_toggle_);
  }
  bool advance(double now) override;

 private:
  /// The toggle at `now`: flip the polarity and decide when the next toggle
  /// falls (next_toggle_). Returns when the edge is emitted.
  double toggle(double now);

  [[nodiscard]] double jitteredEmissionTime(double clean_time);

  sim::Circuit& circuit_;
  Config cfg_;
  double mod_epoch_ = 0.0;  ///< time at which modulation phase is zero
  bool out_state_ = false;  ///< internal output polarity tracker
  double next_toggle_;      ///< the next toggle
  std::mt19937 jitter_rng_;
  std::normal_distribution<double> jitter_dist_{0.0, 1.0};
};

}  // namespace pllbist::pll
