#include "pll/probes.hpp"

#include <gtest/gtest.h>

#include "sim/circuit.hpp"

namespace pllbist::pll {
namespace {

TEST(AnalogProbe, SamplesAtFixedInterval) {
  sim::Circuit c;
  sim::Trace trace("x");
  double value = 0.0;
  AnalogProbe probe(c, [&] { return value; }, trace, 0.1);
  c.scheduleCallback(0.35, [&](double) { value = 7.0; });
  c.run(1.0);
  ASSERT_GE(trace.size(), 10u);
  EXPECT_NEAR(trace.times()[1] - trace.times()[0], 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(trace.values()[0], 0.0);
  EXPECT_DOUBLE_EQ(trace.values()[5], 7.0);  // t = 0.5 after the change
}

TEST(AnalogProbe, StopEndsSampling) {
  sim::Circuit c;
  sim::Trace trace("x");
  AnalogProbe probe(c, [] { return 1.0; }, trace, 0.1);
  c.run(0.55);
  probe.stop();
  const size_t n = trace.size();
  c.run(2.0);
  EXPECT_EQ(trace.size(), n);
}

TEST(AnalogProbe, RejectsBadInterval) {
  sim::Circuit c;
  sim::Trace trace("x");
  EXPECT_THROW(AnalogProbe(c, [] { return 0.0; }, trace, 0.0), std::invalid_argument);
}

TEST(AnalogProbe, DelayedStart) {
  sim::Circuit c;
  sim::Trace trace("x");
  AnalogProbe probe(c, [] { return 1.0; }, trace, 0.1, 0.5);
  c.run(0.45);
  EXPECT_TRUE(trace.empty());
  c.run(1.0);
  EXPECT_FALSE(trace.empty());
  EXPECT_DOUBLE_EQ(trace.times().front(), 0.5);
}

/// UP/DN nets feeding a lock detector through LockDetector::pumpChanged.
struct LockBench {
  sim::Circuit c;
  sim::SignalId up;
  sim::SignalId dn;
  LockBench() : up(c.addSignal("up")), dn(c.addSignal("dn")) {}

  void wire(LockDetector& det) {
    c.onChange(up, [&det](double now, bool v) { det.pumpChanged(false, v, now); });
    c.onChange(dn, [&det](double now, bool v) { det.pumpChanged(true, v, now); });
  }

  void pulse(sim::SignalId sig, double t, double width) {
    c.scheduleSet(sig, t, true);
    c.scheduleSet(sig, t + width, false);
  }
};

TEST(LockDetector, LocksAfterConsecutiveNarrowPulses) {
  LockBench b;
  LockDetector det(1e-6, 5);
  b.wire(det);
  for (int k = 0; k < 6; ++k) b.pulse(b.up, 1e-3 * k, 0.5e-6);
  b.c.run(0.01);
  EXPECT_TRUE(det.isLocked());
  EXPECT_GT(det.lockTime(), 0.0);
}

TEST(LockDetector, WidePulseResetsProgress) {
  LockBench b;
  LockDetector det(1e-6, 5);
  b.wire(det);
  for (int k = 0; k < 4; ++k) b.pulse(b.up, 1e-3 * k, 0.5e-6);
  b.pulse(b.up, 4e-3, 10e-6);  // wide: unlock indicator
  for (int k = 5; k < 8; ++k) b.pulse(b.up, 1e-3 * k, 0.5e-6);
  b.c.run(0.01);
  EXPECT_FALSE(det.isLocked());  // only 3 consecutive after the reset
}

TEST(LockDetector, BothChannelsContribute) {
  LockBench b;
  LockDetector det(1e-6, 4);
  b.wire(det);
  b.pulse(b.up, 1e-3, 0.5e-6);
  b.pulse(b.dn, 2e-3, 0.5e-6);
  b.pulse(b.up, 3e-3, 0.5e-6);
  b.pulse(b.dn, 4e-3, 0.5e-6);
  b.c.run(0.01);
  EXPECT_TRUE(det.isLocked());
}

TEST(LockDetector, ResetClearsState) {
  LockBench b;
  LockDetector det(1e-6, 2);
  b.wire(det);
  b.pulse(b.up, 1e-3, 0.5e-6);
  b.pulse(b.up, 2e-3, 0.5e-6);
  b.c.run(0.01);
  EXPECT_TRUE(det.isLocked());
  det.reset();
  EXPECT_FALSE(det.isLocked());
}

TEST(LockDetector, Validation) {
  EXPECT_THROW(LockDetector(0.0, 5), std::invalid_argument);
  EXPECT_THROW(LockDetector(1e-6, 0), std::invalid_argument);
}

}  // namespace
}  // namespace pllbist::pll
