#pragma once

#include <vector>

#include "obs/metrics.hpp"

namespace pllbist::bist {

struct ResilientResponse;

/// Add one finished run to the global MetricsRegistry (names per DESIGN.md
/// §8): its quality report's counts (bist.resilient.*), one stall when it
/// ended in SimulationStall, the bist.sweep.point_wall_s sample of every
/// attempted point, and its BenchStats (sim.kernel.*, and sim.faults.*
/// when a fault injector was attached). The only writer of these metrics:
/// every ResilientSweep::runPoints (a farm point on its fork) and a shared
/// bench's failed prelude publish their result once, and the farm its
/// shared prelude once, so the totals equal the published tallies.
/// RunReport's kernel and fault blocks come from the run's own `bench`.
void publishRun(const ResilientResponse& run);

/// The run's counters as (metric name, value), in registry order: the
/// seven quality counts, then the BenchStats::kCounters rows the run
/// carries. The campaign report's metrics block, derived from the run
/// alone so a resumed campaign reproduces it exactly.
[[nodiscard]] std::vector<obs::CounterValue> runCounters(const ResilientResponse& run);

}  // namespace pllbist::bist
