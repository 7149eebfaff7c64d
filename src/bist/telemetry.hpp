#pragma once

#include "obs/metrics.hpp"

namespace pllbist::bist {

struct BenchStats;

/// Handles into the global MetricsRegistry for the sweep engines, registered
/// once per process. Naming follows the layer.component.name convention
/// (DESIGN.md §8). Shared by ResilientSweep and (through its point loop)
/// ParallelSweep, so every execution path re-homes the same counters.
struct SweepTelemetry {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Counter attempts = reg.counter("bist.resilient.attempts");
  obs::Counter relocks = reg.counter("bist.resilient.relocks");
  obs::Counter relock_failures = reg.counter("bist.resilient.relock_failures");
  obs::Counter points_ok = reg.counter("bist.resilient.points_ok");
  obs::Counter points_retried = reg.counter("bist.resilient.points_retried");
  obs::Counter points_degraded = reg.counter("bist.resilient.points_degraded");
  obs::Counter points_dropped = reg.counter("bist.resilient.points_dropped");
  obs::Counter stalls = reg.counter("bist.resilient.stalls");
  obs::Histogram point_wall =
      reg.histogram("bist.sweep.point_wall_s", obs::MetricsRegistry::latencyBucketsSeconds());
  obs::Counter kernel_processed = reg.counter("sim.kernel.events_processed");
  obs::Counter kernel_delivered = reg.counter("sim.kernel.events_delivered");
  obs::Counter kernel_dropped = reg.counter("sim.kernel.events_dropped");
  obs::Counter kernel_delayed = reg.counter("sim.kernel.events_delayed");
  obs::Counter kernel_swallowed = reg.counter("sim.kernel.events_swallowed");
  obs::Counter faults_benches = reg.counter("sim.faults.benches");
  obs::Counter faults_considered = reg.counter("sim.faults.considered");
  obs::Counter faults_dropped = reg.counter("sim.faults.dropped");
  obs::Counter faults_delayed = reg.counter("sim.faults.delayed");
  obs::Counter faults_glitches = reg.counter("sim.faults.glitches");
};

/// The process-wide handle set (leaked, like the registry it points into).
SweepTelemetry& sweepTelemetry();

/// Add a run's bench statistics — the circuit's kernel event counters and
/// the fault injector's rule statistics (BenchStats) — to the registry's
/// process-wide totals, which a registry snapshot then reports beside the
/// sweep counters. Every run counts only its own work (a farm point from
/// its fork, the farm's prelude once), so adding each run's stats once at
/// its end is exact. RunReport's kernel and fault blocks do not read these
/// totals: they come from the run's own ResilientResponse::bench.
void publishBenchCounters(const BenchStats& stats);

}  // namespace pllbist::bist
