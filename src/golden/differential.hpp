#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bist/sweep_types.hpp"
#include "bist/parallel_sweep.hpp"
#include "common/status.hpp"
#include "golden/linear_model.hpp"
#include "obs/report.hpp"
#include "pll/config.hpp"

namespace pllbist::golden {

/// Schema identifier of the differential-run report (aliases the obs-layer
/// constant so report tooling and the emitter cannot drift apart).
inline constexpr const char* kGoldenReportSchema = obs::kGoldenReportSchema;

/// One tolerance band: points with fm/fn <= f_over_fn_max (and above the
/// previous band's edge) must agree with the oracle within these limits.
struct ToleranceBand {
  double f_over_fn_max = 0.0;
  double magnitude_db = 0.0;
  double phase_deg = 0.0;
  const char* label = "";
};

/// The documented tolerance-band contract (DESIGN.md section 9). Bands are
/// ascending in f_over_fn_max; points beyond the last band are excluded
/// from the verdict (counter-quantisation floor). Phase is banded *after*
/// the transport-delay correction (see DifferentialOptions). Rationale,
/// from the eqn (5)/(7)/(8) error budget:
///   - in-band (fm <= 0.55*fn): the eqn (7) referencing cancels the scale,
///     stimulus quality dominates -> tight (+-1 dB, +-5 deg);
///   - around the peak / omega_3dB: held-peak timing and FSK step
///     quantisation add up -> relaxed;
///   - past ~2.6*fn: the held deviation approaches the DCO/counter
///     resolution floor, errors are unbounded -> excluded.
struct ToleranceBands {
  std::vector<ToleranceBand> bands;

  [[nodiscard]] static ToleranceBands defaults();

  /// The band containing f_over_fn, or nullptr when beyond the last band.
  [[nodiscard]] const ToleranceBand* bandFor(double f_over_fn) const;
};

/// Everything that parameterises one differential run.
struct DifferentialOptions {
  bist::StimulusKind stimulus = bist::StimulusKind::MultiToneFsk;
  /// FSK slots per modulation period. The differential default is finer
  /// than the paper's 10 because the oracle comparison is a correctness
  /// gate, not a hardware-cost study: 20 steps keep the in-band stimulus
  /// distortion below the tight band.
  int fm_steps = 20;
  int points = 9;
  double f_min_over_fn = 0.25;  ///< sweep start, as a fraction of fn
  double f_max_over_fn = 2.5;   ///< sweep end
  uint64_t seed = 1;            ///< stimulus jitter / per-point seed base
  /// Worker threads for the point farm; 1 = serial reference execution
  /// (bit-identical to any other job count by the PR-2 contract).
  int jobs = 1;
  /// The sampled BIST path (PFD decisions latched once per reference
  /// cycle, DCO stimulus synthesis, hold mux) adds a transport delay of
  /// about this many reference periods that the continuous-time oracle
  /// does not model. The comparison removes the corresponding first-order
  /// phase lag 360 * fm * k / fref before banding; magnitudes are
  /// unaffected (pure delay is all-pass). Calibrated across both pump
  /// kinds and zeta in [0.3, 1.5]; 0 disables the correction.
  double transport_delay_ref_periods = 1.0;
  ToleranceBands bands = ToleranceBands::defaults();
  bist::ResilientSweepOptions resilience;
};

/// One compared frequency point.
struct ComparisonPoint {
  double fm_hz = 0.0;
  double f_over_fn = 0.0;
  double measured_db = 0.0;
  double golden_db = 0.0;
  double delta_db = 0.0;  ///< measured - golden
  double measured_phase_deg = 0.0;
  double golden_phase_deg = 0.0;  ///< pure oracle value, no delay correction
  /// Transport-delay phase removed before banding (positive lag).
  double delay_correction_deg = 0.0;
  /// measured - golden + delay_correction, wrapped into (-180, 180].
  double delta_phase_deg = 0.0;
  double magnitude_tol_db = 0.0;
  double phase_tol_deg = 0.0;
  std::string band;     ///< band label, or "excluded"
  std::string quality;  ///< point quality name from the sweep engine
  bool compared = false;  ///< inside a band and usable (not dropped)
  bool pass = false;      ///< compared and within both tolerances
  double wall_time_s = 0.0;  ///< timing field (stripped by stripTimingFields)
};

/// Result of one differential run: the BIST sweep compared point-by-point
/// against the analytical oracle.
struct DifferentialReport {
  std::string device;    ///< free-form device label
  std::string stimulus;  ///< stimulus kind name
  GoldenParameters golden;
  uint64_t config_digest = 0;  ///< FNV-1a over the canonical config string
  uint64_t seed = 0;
  int jobs = 1;
  double transport_delay_ref_periods = 0.0;  ///< correction applied, in Tref
  ToleranceBands bands;
  std::vector<ComparisonPoint> points;
  bist::SweepQualityReport quality;
  Status sweep_status;
  int compared = 0;
  int excluded = 0;
  double max_abs_delta_db = 0.0;        ///< over compared points
  double max_abs_delta_phase_deg = 0.0; ///< over compared points
  bool pass = false;

  /// Serialise as schema pllbist.golden_report/1. Deterministic: identical
  /// reports produce byte-identical documents, and the only host-timing
  /// fields use the RunReport names (quality.wall_time_s,
  /// points[].wall_time_s) so obs::stripTimingFields applies unchanged.
  [[nodiscard]] std::string toJson() const;
};

/// Run the BIST sweep for `config` on the point farm and compare the
/// measured magnitude/phase against the GoldenModel capacitor-node curve
/// under the tolerance-band contract. Never throws on a sick device: a
/// fatal sweep leaves pass = false with the sweep status recorded.
[[nodiscard]] DifferentialReport runDifferential(const pll::PllConfig& config,
                                                 const DifferentialOptions& options = {},
                                                 const std::string& device = "custom");

/// Deterministic seeded random device for differential/fuzz campaigns:
/// splitmix64 over `seed` picks fn in [120, 420] Hz (log-uniform), zeta in
/// [0.3, 1.5] and alternates pump kinds — spanning under-, near-critically-
/// and over-damped regimes. The same seed always yields the same device.
struct SeededConfig {
  pll::PllConfig config;
  double fn_hz = 0.0;
  double zeta = 0.0;
  uint64_t seed = 0;
};
[[nodiscard]] SeededConfig seededRandomConfig(uint64_t seed);

}  // namespace pllbist::golden
