#pragma once

#include <optional>
#include <vector>

#include "control/transfer_function.hpp"

namespace pllbist::control {

/// One point of a frequency-response plot.
struct BodePoint {
  double omega_rad_per_s = 0.0;
  double magnitude_db = 0.0;
  double phase_deg = 0.0;  // unwrapped (continuous across points)
};

/// Location and height of the closed-loop magnitude peak.
struct ResponsePeak {
  double omega_rad_per_s = 0.0;
  double magnitude_db = 0.0;
};

/// A sampled magnitude/phase frequency response with the feature-extraction
/// queries used by both the theoretical plots (Figs. 1 and 10) and the
/// BIST post-processing: peak location (omega_p), peaking above the in-band
/// reference, and the one-sided -3 dB loop bandwidth (omega_3dB).
class BodeResponse {
 public:
  BodeResponse() = default;

  /// Sample H(j*omega) at the given radian frequencies (must be ascending
  /// and positive). Phase is unwrapped point-to-point.
  static BodeResponse compute(const TransferFunction& tf, const std::vector<double>& omegas);

  /// Build directly from measured points (already ascending in omega).
  /// Phase is unwrapped. Throws std::invalid_argument if omegas not ascending.
  static BodeResponse fromPoints(std::vector<BodePoint> points);

  [[nodiscard]] const std::vector<BodePoint>& points() const { return points_; }
  [[nodiscard]] bool empty() const { return points_.empty(); }
  [[nodiscard]] size_t size() const { return points_.size(); }

  /// Linear-in-log-omega interpolated magnitude (dB) at omega. Throws
  /// std::domain_error outside the sampled range.
  [[nodiscard]] double magnitudeDbAt(double omega) const;

  /// Interpolated unwrapped phase (degrees) at omega.
  [[nodiscard]] double phaseDegAt(double omega) const;

  /// The sampled point at exactly `omega`, or nullptr when there is none
  /// (e.g. a measured point that timed out). Pairs the points of responses
  /// swept over the same frequency list.
  [[nodiscard]] const BodePoint* pointAt(double omega) const;

  /// Magnitude of the first (lowest-frequency) point; the paper's in-band
  /// 0 dB-asymptote reference (section 2).
  [[nodiscard]] double inBandMagnitudeDb() const;

  /// Peak of the magnitude curve, refined by parabolic interpolation through
  /// the three samples around the maximum.
  [[nodiscard]] ResponsePeak peak() const;

  /// Peaking: peak magnitude minus the in-band reference, in dB.
  [[nodiscard]] double peakingDb() const;

  /// First frequency above the peak where the magnitude crosses
  /// (in-band reference - 3 dB); linear interpolation between samples.
  /// nullopt if the curve never crosses within the sampled range.
  [[nodiscard]] std::optional<double> bandwidth3Db() const;

  /// Frequency at which the unwrapped phase first crosses the given value
  /// (degrees, typically negative); nullopt if never crossed.
  [[nodiscard]] std::optional<double> phaseCrossing(double phase_deg) const;

  /// Returns a copy with every magnitude shifted by -inBandMagnitudeDb(), so
  /// the low-frequency asymptote reads 0 dB (eqn (7) referencing).
  [[nodiscard]] BodeResponse normalizedToInBand() const;

 private:
  std::vector<BodePoint> points_;
};

/// Unwrap a sequence of phases in degrees so that consecutive values never
/// jump by more than 180 degrees.
std::vector<double> unwrapPhaseDeg(const std::vector<double>& wrapped_deg);

}  // namespace pllbist::control
