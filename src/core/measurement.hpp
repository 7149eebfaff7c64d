#pragma once

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

/// Run the on-chip BIST measurement (the paper's method) of `config`
/// through ResilientSweep on a fresh simulated testbench. Never throws on a
/// sick device: dropped points are excluded from the Bode fit, the quality
/// report records what happened, and `status` is non-ok when the sweep
/// ended early or nothing usable survived. Throws std::invalid_argument only
/// on an invalid config or invalid options. Pass {.max_attempts = 1} for one
/// attempt per point.
[[nodiscard]] MeasurementResult measure(const pll::PllConfig& config,
                                        const bist::SweepOptions& sweep,
                                        const bist::ResilientSweepOptions& resilience = {});

}  // namespace pllbist::core
