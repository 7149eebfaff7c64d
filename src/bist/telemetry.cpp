#include "bist/telemetry.hpp"

#include "bist/resilient_sweep.hpp"
#include "obs/metrics.hpp"

namespace pllbist::bist {

namespace {

/// Handles into the global registry, registered once per process in this
/// order (snapshots list metrics in registration order).
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

SweepTelemetry& telemetry() {
  static SweepTelemetry* t = new SweepTelemetry();  // handles into the leaked global registry
  return *t;
}

}  // namespace

void publishRun(const ResilientResponse& run) {
  SweepTelemetry& t = telemetry();
  const SweepQualityReport& q = run.report;
  t.attempts.add(static_cast<uint64_t>(q.attempts_total));
  t.relocks.add(static_cast<uint64_t>(q.relocks));
  t.relock_failures.add(static_cast<uint64_t>(q.relock_failures));
  t.points_ok.add(static_cast<uint64_t>(q.ok));
  t.points_retried.add(static_cast<uint64_t>(q.retried));
  t.points_degraded.add(static_cast<uint64_t>(q.degraded));
  t.points_dropped.add(static_cast<uint64_t>(q.dropped));
  if (run.status.kind() == Status::Kind::SimulationStall) t.stalls.increment();
  for (const MeasuredPoint& p : run.response.points)
    if (p.attempts > 0) t.point_wall.observe(p.wall_time_s);

  const BenchStats& b = run.bench;
  t.kernel_processed.add(b.events_processed);
  t.kernel_delivered.add(b.events_delivered);
  t.kernel_dropped.add(b.events_dropped);
  t.kernel_delayed.add(b.events_delayed);
  t.kernel_swallowed.add(b.events_swallowed);
  if (b.fault_benches > 0) {
    t.faults_benches.add(b.fault_benches);
    t.faults_considered.add(b.faults_considered);
    t.faults_dropped.add(b.faults_dropped);
    t.faults_delayed.add(b.faults_delayed);
    t.faults_glitches.add(b.faults_glitches);
  }
}

}  // namespace pllbist::bist
