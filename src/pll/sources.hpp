#pragma once

#include <algorithm>
#include <cstdint>
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
/// A one-master-clock-tick pulse is emitted on `peak_marker` each time the
/// modulation passes its positive crest — the "known stimulus peak" the
/// phase counter is started from (Table 2 stage 1).
///
/// Pulled (sim::ReferenceSource), the toggles and, under jitter, the
/// emitted edges they decide are its puller's instants; only the crest
/// markers are kernel events.
class SineFmSource : public sim::Component,
                     public sim::ReferenceSource,
                     private sim::Circuit::Handler {
 public:
  struct Config {
    double nominal_hz = 0.0;
    double deviation_hz = 0.0;      ///< peak frequency deviation
    double modulation_hz = 0.0;     ///< modulation (tone) frequency; 0 = CW
    double start_time_s = 0.0;      ///< modulation (and output) start
    double marker_pulse_s = 1e-6;   ///< width of the peak-marker pulse
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

  SineFmSource(sim::Circuit& c, sim::SignalId out, sim::SignalId peak_marker, const Config& cfg,
               sim::SourceMode mode = sim::SourceMode::Drive);

  /// Re-program modulation frequency (takes effect from the next toggle;
  /// modulation phase restarts at the current time). deviation may also be
  /// changed. Passing modulation_hz = 0 reverts to an unmodulated carrier.
  void setModulation(double modulation_hz, double deviation_hz);

  /// Re-program the carrier (nominal) frequency; used to park the source at
  /// a static offset for DC reference measurements.
  void setCarrier(double nominal_hz);

  [[nodiscard]] double instantaneousFrequency(double t) const;
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
  /// Carrier toggles carry tag 0; crest markers carry
  /// generationTag(marker generation, 1), so a re-programmed source
  /// recognises the markers of its old program as stale.
  static constexpr uint32_t kToggle = 0;
  [[nodiscard]] uint32_t markerTag() const { return generationTag(marker_generation_, 1); }

  bool onEvent(uint32_t tag, double now) override;
  /// The toggle at `now`: flip the polarity and decide when the next toggle
  /// falls (next_toggle_). Returns when the edge is emitted.
  double toggle(double now);
  void schedulePeakMarker(double from_time);

  [[nodiscard]] double jitteredEmissionTime(double clean_time);

  sim::Circuit& circuit_;
  sim::Circuit::HandlerId handler_;
  sim::SignalId out_;
  sim::SignalId peak_marker_;
  Config cfg_;
  double mod_epoch_ = 0.0;  ///< time at which modulation phase is zero
  uint32_t marker_generation_ = 0;  ///< invalidates stale marker events
  bool out_state_ = false;          ///< internal output polarity tracker
  double next_toggle_;              ///< the next toggle (a pulled source's instant)
  std::mt19937 jitter_rng_;
  std::normal_distribution<double> jitter_dist_{0.0, 1.0};
};

}  // namespace pllbist::pll
