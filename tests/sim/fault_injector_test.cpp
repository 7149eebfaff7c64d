#include "sim/fault_injector.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/circuit.hpp"
#include "sim/primitives.hpp"

namespace pllbist::sim {
namespace {

/// Drop probability 1: the clock's edges never reach the net.
TEST(FaultInjector, DropAllEdgesFreezesSignal) {
  Circuit c;
  const SignalId clk = c.addSignal("clk");
  ClockSource source(c, clk, 1e-3);
  SourceDriver drive(c, source);
  FaultInjector injector(c, 7);
  injector.dropEdges(clk, 1.0);
  int edges = 0;
  c.onChange(clk, [&](double, bool) { ++edges; });
  c.run(0.02);
  EXPECT_EQ(edges, 0);
  EXPECT_FALSE(c.value(clk));
  EXPECT_GT(injector.stats().dropped, 0u);
  EXPECT_EQ(injector.stats().dropped, injector.stats().considered);
}

/// Drop probability 0 is a pass-through: every edge delivered, none lost.
TEST(FaultInjector, ZeroProbabilityDeliversEverything) {
  Circuit c;
  const SignalId clk = c.addSignal("clk");
  ClockSource source(c, clk, 1e-3);
  SourceDriver drive(c, source);
  FaultInjector injector(c, 7);
  injector.dropEdges(clk, 0.0);
  int edges = 0;
  c.onChange(clk, [&](double, bool) { ++edges; });
  c.run(0.02);
  EXPECT_GT(edges, 10);
  EXPECT_EQ(injector.stats().dropped, 0u);
  EXPECT_GT(injector.stats().considered, 0u);
}

/// The same (seed, rules, workload) triple replays bit-exactly; a different
/// seed picks a different subset of edges to kill.
TEST(FaultInjector, DropPatternIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    Circuit c;
    const SignalId clk = c.addSignal("clk");
    ClockSource source(c, clk, 1e-3);
    SourceDriver drive(c, source);
    FaultInjector injector(c, seed);
    injector.dropEdges(clk, 0.5);
    std::vector<double> edge_times;
    c.onChange(clk, [&](double now, bool) { edge_times.push_back(now); });
    c.run(0.1);
    return std::make_pair(edge_times, injector.stats().dropped);
  };
  const auto a = run(42);
  const auto b = run(42);
  const auto other = run(43);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_NE(a.first, other.first);
  // p = 0.5 over ~100 edges: both halves must be populated.
  EXPECT_GT(a.second, 10u);
  EXPECT_GT(a.first.size(), 10u);
}

/// A delayed edge is postponed by exactly the configured amount and is
/// delivered once at the postponed time without being re-intercepted.
TEST(FaultInjector, DelayPostponesAnEdgeOutOfItsWindow) {
  Circuit c;
  const SignalId sig = c.addSignal("sig");
  FaultInjector injector(c, 1);
  injector.delayEdges(sig, 1.0, 2e-3, 2e-3, 0.0, 2e-3);  // window [0, 2ms)
  c.scheduleSet(sig, 1e-3, true);
  std::vector<double> rises;
  c.onRisingEdge(sig, [&](double now) { rises.push_back(now); });
  c.run(0.01);
  ASSERT_EQ(rises.size(), 1u);
  EXPECT_DOUBLE_EQ(rises[0], 3e-3);  // 1 ms original + 2 ms delay
  EXPECT_EQ(injector.stats().delayed, 1u);
}

/// stickSignal freezes the net for the window and releases it afterwards.
TEST(FaultInjector, StickSignalFreezesThenReleases) {
  Circuit c;
  const SignalId clk = c.addSignal("clk");
  ClockSource source(c, clk, 1e-3);
  SourceDriver drive(c, source);
  FaultInjector injector(c, 1);
  injector.stickSignal(clk, 2e-3, 6e-3);
  std::vector<double> edge_times;
  c.onChange(clk, [&](double now, bool) { edge_times.push_back(now); });
  c.run(0.01);
  ASSERT_FALSE(edge_times.empty());
  for (double t : edge_times) {
    EXPECT_TRUE(t < 2e-3 || t >= 6e-3) << "edge at " << t << " inside the stick window";
  }
  // The clock keeps toggling after the window closes.
  EXPECT_GE(edge_times.back(), 6e-3);
}

/// One glitch = one invert-restore pulse, visible as two transitions.
TEST(FaultInjector, GlitchInvertsThenRestores) {
  Circuit c;
  const SignalId sig = c.addSignal("sig");  // idle low
  FaultInjector injector(c, 1);
  injector.injectGlitch(sig, 1e-3, 1e-4);
  std::vector<std::pair<double, bool>> changes;
  c.onChange(sig, [&](double now, bool v) { changes.emplace_back(now, v); });
  c.run(0.01);
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_DOUBLE_EQ(changes[0].first, 1e-3);
  EXPECT_TRUE(changes[0].second);
  EXPECT_DOUBLE_EQ(changes[1].first, 1.1e-3);
  EXPECT_FALSE(changes[1].second);
  EXPECT_EQ(injector.stats().glitches, 1u);
}

/// Glitch storms follow a seeded Poisson process: replayable, and the pulse
/// count scales with the window / mean-interval ratio.
TEST(FaultInjector, GlitchStormIsSeededAndBounded) {
  auto run = [](uint64_t seed) {
    Circuit c;
    const SignalId sig = c.addSignal("sig");
    FaultInjector injector(c, seed);
    injector.injectGlitchStorm(sig, 0.0, 0.1, 2e-3, 1e-4);
    c.run(0.2);
    return injector.stats().glitches;
  };
  const uint64_t a = run(5);
  EXPECT_EQ(a, run(5));
  // 100 ms window, 2 ms mean interval: expect on the order of 50 pulses.
  EXPECT_GT(a, 15u);
  EXPECT_LT(a, 150u);
}

/// One interceptor per circuit: a second injector is a logic error.
TEST(FaultInjector, SecondInjectorOnSameCircuitThrows) {
  Circuit c;
  FaultInjector first(c, 1);
  EXPECT_THROW(FaultInjector second(c, 2), std::logic_error);
}

/// Destroying the injector detaches it: edges flow again.
TEST(FaultInjector, DestructionDetachesInterceptor) {
  Circuit c;
  const SignalId clk = c.addSignal("clk");
  ClockSource source(c, clk, 1e-3);
  SourceDriver drive(c, source);
  int edges = 0;  // must outlive the onChange registration below
  c.onChange(clk, [&](double, bool) { ++edges; });
  {
    FaultInjector injector(c, 1);
    injector.dropEdges(clk, 1.0);
    c.run(0.01);
    EXPECT_EQ(edges, 0);
  }
  EXPECT_FALSE(c.hasEventInterceptor());
  c.run(0.02);
  EXPECT_GT(edges, 5);
}

/// Invalid rule parameters are rejected up front.
TEST(FaultInjector, RejectsInvalidRuleParameters) {
  Circuit c;
  const SignalId sig = c.addSignal("sig");
  FaultInjector injector(c, 1);
  EXPECT_THROW(injector.dropEdges(sig, 1.5), std::invalid_argument);
  EXPECT_THROW(injector.delayEdges(sig, 0.5, 0.0, 1e-3), std::invalid_argument);
  EXPECT_THROW(injector.delayEdges(sig, 0.5, 2e-3, 1e-3), std::invalid_argument);
  EXPECT_THROW(injector.injectGlitch(sig, 1e-3, 0.0), std::invalid_argument);
  EXPECT_THROW(injector.injectGlitchStorm(sig, 0.1, 0.0, 1e-3, 1e-4), std::invalid_argument);
}

}  // namespace
}  // namespace pllbist::sim
