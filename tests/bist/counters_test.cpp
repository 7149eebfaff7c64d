#include "bist/counters.hpp"

#include <gtest/gtest.h>

#include "sim/circuit.hpp"
#include "sim/primitives.hpp"

namespace pllbist::bist {
namespace {

TEST(FrequencyCounter, CountsOverGate) {
  sim::Circuit c;
  const auto clk = c.addSignal("clk");
  sim::ClockSource src(c, clk, 1e-4);  // 10 kHz
  FrequencyCounter counter(c, clk);
  c.run(0.01);
  FrequencyCounter::Result result;
  bool done = false;
  counter.measure(0.1, [&](FrequencyCounter::Result r) {
    result = r;
    done = true;
  });
  EXPECT_TRUE(counter.busy());
  c.run(0.2);
  ASSERT_TRUE(done);
  EXPECT_FALSE(counter.busy());
  EXPECT_NEAR(static_cast<double>(result.count), 1000.0, 1.0);  // +/-1 quantisation
  EXPECT_NEAR(result.frequencyHz(), 10e3, 10.0);
  EXPECT_DOUBLE_EQ(result.gate_s, 0.1);
}

TEST(FrequencyCounter, PlusMinusOneQuantisation) {
  sim::Circuit c;
  const auto clk = c.addSignal("clk");
  sim::ClockSource src(c, clk, 3e-4);  // 3333.33 Hz
  FrequencyCounter counter(c, clk);
  long count = -1;
  counter.measure(0.01, [&](FrequencyCounter::Result r) { count = r.count; });
  c.run(0.02);
  // 33.3 edges in the gate: integer count.
  EXPECT_TRUE(count == 33 || count == 34) << count;
}

TEST(FrequencyCounter, RejectsOverlappingMeasurements) {
  sim::Circuit c;
  const auto clk = c.addSignal("clk");
  FrequencyCounter counter(c, clk);
  counter.measure(1.0, [](FrequencyCounter::Result) {});
  EXPECT_THROW(counter.measure(1.0, [](FrequencyCounter::Result) {}), std::logic_error);
  EXPECT_THROW(counter.measure(0.0, [](FrequencyCounter::Result) {}), std::invalid_argument);
}

TEST(FrequencyCounter, BackToBackMeasurements) {
  sim::Circuit c;
  const auto clk = c.addSignal("clk");
  sim::ClockSource src(c, clk, 1e-3);
  FrequencyCounter counter(c, clk);
  double f1 = 0.0, f2 = 0.0;
  counter.measure(0.05, [&](FrequencyCounter::Result r) { f1 = r.frequencyHz(); });
  c.run(0.1);
  counter.measure(0.05, [&](FrequencyCounter::Result r) { f2 = r.frequencyHz(); });
  c.run(0.2);
  EXPECT_NEAR(f1, 1000.0, 25.0);
  EXPECT_NEAR(f2, 1000.0, 25.0);
}

TEST(PhaseCounter, CountsWholeClockPeriods) {
  PhaseCounter pc(1e6);
  pc.arm(0.0);
  EXPECT_TRUE(pc.armed());
  EXPECT_EQ(pc.capture(123.4e-6), 123);
  EXPECT_FALSE(pc.armed());
}

TEST(PhaseCounter, CaptureWithoutArmThrows) {
  PhaseCounter pc(1e6);
  EXPECT_THROW(pc.capture(1.0), std::logic_error);
}

TEST(PhaseCounter, RearmsCleanly) {
  PhaseCounter pc(1e6);
  pc.arm(1.0);
  EXPECT_EQ(pc.capture(1.0 + 50e-6), 50);
  pc.arm(2.0);
  EXPECT_EQ(pc.capture(2.0 + 10e-6), 10);
}

TEST(PhaseCounter, Validation) {
  EXPECT_THROW(PhaseCounter(0.0), std::invalid_argument);
  EXPECT_THROW((void)PhaseCounter::phaseDelayDeg(10, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)PhaseCounter::phaseDelayDeg(10, 1e6, -1.0), std::invalid_argument);
}

TEST(PhaseCounter, Eqn8PhaseDelay) {
  // eqn (8): 360 * (T*N)/Tmod, reported as a lag. N = 25000 counts of a
  // 1 MHz clock at 10 Hz modulation: delay = 25 ms = 90 degrees.
  EXPECT_NEAR(PhaseCounter::phaseDelayDeg(25000, 1e6, 10.0), -90.0, 1e-9);
  // A full period comes back as -360.
  EXPECT_NEAR(PhaseCounter::phaseDelayDeg(100000, 1e6, 10.0), -360.0, 1e-9);
  // Zero delay is zero phase.
  EXPECT_DOUBLE_EQ(PhaseCounter::phaseDelayDeg(0, 1e6, 10.0), 0.0);
}

TEST(PhaseCounter, ResolutionScalesWithClock) {
  // Faster test clock -> finer phase resolution at fixed modulation.
  const double coarse = PhaseCounter::phaseDelayDeg(1, 1e5, 10.0);
  const double fine = PhaseCounter::phaseDelayDeg(1, 1e6, 10.0);
  EXPECT_NEAR(coarse, 10.0 * fine, 1e-12);
}

}  // namespace
}  // namespace pllbist::bist
