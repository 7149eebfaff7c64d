#pragma once

#include <vector>

#include "bist/sequencer.hpp"
#include "common/status.hpp"
#include "control/bode.hpp"
#include "pll/config.hpp"

namespace pllbist::bist {

/// How the reference modulation is produced.
enum class StimulusKind {
  MultiToneFsk,  ///< DCO + M-step sampled-sine program (the on-chip method)
  TwoToneFsk,    ///< DCO + square +/-deviation program
  PureSineFm,    ///< ideal sinusoidal FM (bench-equipment reference case)
  DelayLinePm,   ///< tapped-delay-line phase modulation (paper further work)
};

[[nodiscard]] const char* to_string(StimulusKind kind);

/// Everything that parameterises one transfer-function sweep.
struct SweepOptions {
  StimulusKind stimulus = StimulusKind::MultiToneFsk;
  int fm_steps = 10;                ///< FSK/PM slots per modulation period
  double deviation_hz = 10.0;       ///< peak reference deviation (FM kinds)
  int pm_taps = 16;                 ///< delay-line taps (DelayLinePm)
  double pm_tap_delay_s = 0.0;      ///< per-tap delay; 0 = auto (span Tref/8)
  std::vector<double> modulation_frequencies_hz;  ///< ascending; first = in-band ref
  double master_clock_hz = 1e6;     ///< DCO master / test clock
  double lock_wait_s = 1.0;         ///< initial lock acquisition time
  double static_settle_s = 1.0;     ///< settle before the DC reference count
  /// RMS Gaussian edge jitter injected on the reference stimulus
  /// (PureSineFm only; the DCO paths are noiseless digital dividers).
  /// 0 disables. Deterministic per jitter_seed.
  double ref_edge_jitter_rms_s = 0.0;
  unsigned jitter_seed = 1;
  TestSequencer::Options sequencer;

  /// Structured check of the options alone. Every rejection names the
  /// offending field and value.
  [[nodiscard]] Status check() const;
  /// Cross-checks against the device as well (e.g. the stimulus deviation
  /// must stay below the reference frequency or the DCO program wraps
  /// through 0 Hz).
  [[nodiscard]] Status check(const pll::PllConfig& config) const;
  /// check().throwIfError() — kept for the exception-based API.
  void validate() const;

  /// Log-spaced default sweep for a loop with natural frequency fn_hz.
  static std::vector<double> defaultSweep(double fn_hz, int points = 15);
};

/// Sweep options auto-scaled to a device: 1% reference deviation, a DCO
/// master clock 1000x the reference, gates and settle times proportional
/// to the loop's natural period. Suitable defaults for tests and quick
/// experiments on any configuration.
SweepOptions quickSweepOptions(const pll::PllConfig& config, StimulusKind stimulus,
                               int points = 10);

/// Per-point outcome classification of ResilientSweep. A one-attempt sweep
/// (max_attempts = 1) only produces Ok and Dropped; retries fill in the
/// rest of the ladder.
enum class PointQuality {
  Ok,       ///< measured cleanly on the first attempt
  Retried,  ///< failed at least once, then measured successfully
  Degraded, ///< measured, but under abnormal conditions (relock needed, or
            ///  only after heavy settle/timeout escalation)
  Dropped,  ///< retry budget exhausted with no usable measurement
};

[[nodiscard]] const char* to_string(PointQuality quality);

/// One point of the measured closed-loop response.
struct MeasuredPoint {
  double modulation_hz = 0.0;
  double deviation_hz = 0.0;  ///< held peak output deviation (Fmax of eqn (7))
  double phase_deg = 0.0;
  /// Expected output deviation at unity gain (N * input deviation). For FM
  /// this is constant; for delay-line PM it scales with the modulation
  /// frequency (input frequency deviation = theta_dev * fm).
  double unity_gain_deviation_hz = 0.0;
  bool timed_out = false;
  PointQuality quality = PointQuality::Ok;
  int attempts = 1;  ///< measurement attempts consumed (1 = no retries)
  Status status;     ///< failure reason of the *last* attempt; ok() if measured
  /// Host wall-clock seconds spent measuring this point, all attempts and
  /// relock waits included. A timing field: excluded from the bit-identical
  /// determinism contract and stripped from RunReport comparisons.
  double wall_time_s = 0.0;
};

/// Result of a sweep, convertible to a BodeResponse: magnitudes referenced
/// to the DC (parked-offset) in-band measurement per eqn (7) for FM
/// stimuli, or normalised absolutely against the known per-point input
/// deviation for PM (a static phase offset produces no output deviation,
/// so PM has no DC reference).
struct MeasuredResponse {
  double nominal_vco_hz = 0.0;      ///< unmodulated carrier count
  double static_reference_deviation_hz = 0.0;  ///< eqn (7) Frefmax (DC method); 0 for PM
  std::vector<MeasuredPoint> points;

  /// Uses the static reference if positive, else the per-point unity-gain
  /// deviation, else the first sweep point. Throws std::domain_error if no
  /// usable reference exists.
  [[nodiscard]] control::BodeResponse toBode() const;

  /// The swept modulation frequencies, in order.
  [[nodiscard]] std::vector<double> modulationFrequencies() const;
};

}  // namespace pllbist::bist
