#include "bist/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "bist/parallel_sweep.hpp"
#include "bist/resilient_sweep.hpp"
#include "bist/testbench.hpp"
#include "obs/metrics.hpp"
#include "pll/faults.hpp"
#include "sim/fault_injector.hpp"
#include "support/test_configs.hpp"

namespace pllbist::bist {
namespace {

using pllbist::testing::fastSweepOptions;
using pllbist::testing::fastTestConfig;

/// The global registry, reset before a run, must hold exactly that run's
/// tally afterwards: the bist.resilient.* counters equal its quality
/// report, the sim.kernel.* and sim.faults.* counters its bench, and the
/// point wall histogram has one sample per attempted point. Consumers that
/// read registry deltas as exact figures (perf harnesses, dashboards)
/// depend on this.
void expectRegistryMatchesTally(const ResilientResponse& r) {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  auto counter = [&](const std::string& name) -> uint64_t {
    const obs::CounterValue* c = snap.findCounter(name);
    EXPECT_NE(c, nullptr) << name;
    return c != nullptr ? c->value : 0;
  };
  auto count = [](int n) { return static_cast<uint64_t>(n); };
  const SweepQualityReport& q = r.report;
  EXPECT_EQ(counter("bist.resilient.attempts"), count(q.attempts_total));
  EXPECT_EQ(counter("bist.resilient.relocks"), count(q.relocks));
  EXPECT_EQ(counter("bist.resilient.relock_failures"), count(q.relock_failures));
  EXPECT_EQ(counter("bist.resilient.points_ok"), count(q.ok));
  EXPECT_EQ(counter("bist.resilient.points_retried"), count(q.retried));
  EXPECT_EQ(counter("bist.resilient.points_degraded"), count(q.degraded));
  EXPECT_EQ(counter("bist.resilient.points_dropped"), count(q.dropped));
  EXPECT_EQ(counter("bist.resilient.stalls"), 0u);

  const BenchStats& b = r.bench;
  EXPECT_EQ(counter("sim.kernel.events_processed"), b.events_processed);
  EXPECT_EQ(counter("sim.kernel.events_delivered"), b.events_delivered);
  EXPECT_EQ(counter("sim.kernel.events_dropped"), b.events_dropped);
  EXPECT_EQ(counter("sim.kernel.events_delayed"), b.events_delayed);
  EXPECT_EQ(counter("sim.kernel.events_swallowed"), b.events_swallowed);
  EXPECT_EQ(counter("sim.faults.benches"), b.fault_benches);
  EXPECT_EQ(counter("sim.faults.considered"), b.faults_considered);
  EXPECT_EQ(counter("sim.faults.dropped"), b.faults_dropped);
  EXPECT_EQ(counter("sim.faults.delayed"), b.faults_delayed);
  EXPECT_EQ(counter("sim.faults.glitches"), b.faults_glitches);

  uint64_t attempted = 0;
  for (const MeasuredPoint& p : r.response.points)
    if (p.attempts > 0) ++attempted;
  const obs::HistogramValue* wall = snap.findHistogram("bist.sweep.point_wall_s");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->count, attempted);
}

TEST(SweepTelemetry, RegistryEqualsTheTallyOfASweepWithARetry) {
  obs::MetricsRegistry::global().reset();
  ResilientSweep engine(fastTestConfig(), fastSweepOptions(StimulusKind::MultiToneFsk, 3));
  engine.onAttemptStart([](std::size_t point, int attempt, SweepTestbench& tb) {
    sim::FaultInjector& inj = tb.faultInjector(5);
    inj.clearRules();
    if (point == 1 && attempt == 0) inj.dropEdges(tb.mfreq(), 1.0, tb.circuit().now());
  });
  const ResilientResponse r = engine.run();
  ASSERT_TRUE(r.status.ok()) << r.status.toString();
  ASSERT_GT(r.report.attempts_total, r.report.points_total);  // the retry happened
  EXPECT_GT(r.bench.faults_dropped, 0u);
  expectRegistryMatchesTally(r);
}

TEST(SweepTelemetry, RegistryEqualsTheTallyOfASweepWithRelockFailures) {
  obs::MetricsRegistry::global().reset();
  const pll::PllConfig sick =
      pll::applyFault(fastTestConfig(), {pll::FaultSpec::Kind::DividerWrongN, 25.0});
  ResilientSweepOptions rs;
  rs.max_attempts = 2;
  rs.relock_wait_periods = 10.0;  // a railed loop never relocks; keep the wait short
  ResilientSweep engine(sick, fastSweepOptions(StimulusKind::MultiToneFsk, 2), rs);
  const ResilientResponse r = engine.run();
  ASSERT_TRUE(r.status.ok()) << r.status.toString();
  ASSERT_GT(r.report.relock_failures, 0);
  expectRegistryMatchesTally(r);
}

// No relock breaker: points it skips after a worker ran them are published
// but not merged, so only a breaker-free farm's registry equals its tally.
TEST(SweepTelemetry, RegistryEqualsTheTallyOfAFarm) {
  obs::MetricsRegistry::global().reset();
  ParallelSweepOptions popt;
  popt.jobs = 1;
  ParallelSweep engine(fastTestConfig(), fastSweepOptions(StimulusKind::MultiToneFsk, 4), popt);
  const ResilientResponse r = engine.run();
  ASSERT_TRUE(r.status.ok()) << r.status.toString();
  ASSERT_EQ(r.report.points_total, 4);
  expectRegistryMatchesTally(r);
}

}  // namespace
}  // namespace pllbist::bist
