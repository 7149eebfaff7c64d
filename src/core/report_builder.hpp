#pragma once

#include <string>

#include "bist/resilient_sweep.hpp"
#include "obs/report.hpp"
#include "pll/config.hpp"

namespace pllbist::core {

/// Deterministic textual form of a device + sweep configuration, the input
/// to the RunReport config digest. Every numeric knob is printed with
/// shortest-round-trip precision in a fixed order, so two configurations
/// hash equal iff they describe the same measurement.
[[nodiscard]] std::string canonicalConfigString(const pll::PllConfig& config,
                                                const bist::SweepOptions& sweep);

/// Assemble the consolidated obs::RunReport for one finished sweep: naming
/// and digest from the configuration, per-point rows and quality accounting
/// from the response, kernel/fault lists from `result.bench` (this run's
/// counts alone, one entry per reported BenchStats::kCounters row), and
/// `metrics` as the report's metrics block. `jobs`
/// records how the sweep was executed: -1 = serial shared-bench engine,
/// >= 0 = point farm.
[[nodiscard]] obs::RunReport buildRunReport(const std::string& tool, const std::string& device,
                                            const pll::PllConfig& config,
                                            const bist::SweepOptions& sweep, int jobs,
                                            const bist::ResilientResponse& result,
                                            obs::MetricsSnapshot metrics);

}  // namespace pllbist::core
