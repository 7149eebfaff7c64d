#include "bist/telemetry.hpp"

#include "bist/resilient_sweep.hpp"

namespace pllbist::bist {

SweepTelemetry& sweepTelemetry() {
  static SweepTelemetry* t = new SweepTelemetry();  // handles into the leaked global registry
  return *t;
}

void publishBenchCounters(const BenchStats& stats) {
  SweepTelemetry& t = sweepTelemetry();
  t.kernel_processed.add(stats.events_processed);
  t.kernel_delivered.add(stats.events_delivered);
  t.kernel_dropped.add(stats.events_dropped);
  t.kernel_delayed.add(stats.events_delayed);
  t.kernel_swallowed.add(stats.events_swallowed);
  if (stats.fault_benches > 0) {
    t.faults_benches.add(stats.fault_benches);
    t.faults_considered.add(stats.faults_considered);
    t.faults_dropped.add(stats.faults_dropped);
    t.faults_delayed.add(stats.faults_delayed);
    t.faults_glitches.add(stats.faults_glitches);
  }
}

}  // namespace pllbist::bist
