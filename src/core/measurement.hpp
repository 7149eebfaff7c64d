#pragma once

#include "baseline/bench_measurement.hpp"
#include "bist/analysis.hpp"
#include "bist/resilient_sweep.hpp"
#include "common/status.hpp"
#include "control/bode.hpp"
#include "pll/config.hpp"

namespace pllbist::core {

/// One complete transfer-function measurement: the raw sweep, the eqn (7)
/// referenced Bode response, the extracted loop parameters, and the
/// per-sweep quality accounting.
struct MeasurementResult {
  bist::MeasuredResponse sweep;
  control::BodeResponse bode;
  bist::ExtractedParameters parameters;
  /// Retry/relock/drop accounting.
  bist::SweepQualityReport quality;
  /// Ok when the Bode response and parameters are populated; NoValidPoints
  /// when too few points survived to form a response, or the fatal sweep
  /// status (SimulationStall, Cancelled).
  Status status;
};

/// High-level facade over the BIST and the bench baseline. Owns nothing
/// persistent; each call builds a fresh simulated testbench.
class TransferFunctionMeasurement {
 public:
  explicit TransferFunctionMeasurement(pll::PllConfig config);

  [[nodiscard]] const pll::PllConfig& config() const { return config_; }

  /// Run the on-chip BIST measurement (the paper's method) through
  /// ResilientSweep. Never throws on a sick device: dropped points are
  /// excluded from the Bode fit, the quality report records what happened,
  /// and `status` is non-ok when the sweep ended early or nothing usable
  /// survived. Throws only on invalid options. Pass {.max_attempts = 1} for
  /// one attempt per point.
  [[nodiscard]] MeasurementResult measure(const bist::SweepOptions& options,
                                          const bist::ResilientSweepOptions& resilience = {}) const;

  /// Run the conventional bench measurement baseline (analog access).
  [[nodiscard]] baseline::BenchResult runBench(const baseline::BenchOptions& options) const;
  [[nodiscard]] baseline::BenchResult runBench(int points = 12) const;

  /// Theory curves for comparison.
  [[nodiscard]] control::TransferFunction theoryEqn4() const;       ///< closed loop, with zero
  [[nodiscard]] control::TransferFunction theoryCapacitor() const;  ///< what the BIST captures

  /// Default sweep options matched to this device.
  [[nodiscard]] bist::SweepOptions defaultSweepOptions(
      bist::StimulusKind stimulus = bist::StimulusKind::MultiToneFsk, int points = 12) const;

 private:
  pll::PllConfig config_;
};

}  // namespace pllbist::core
