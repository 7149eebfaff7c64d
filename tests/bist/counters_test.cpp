#include "bist/counters.hpp"

#include <gtest/gtest.h>

#include "pll/cppll.hpp"
#include "pll/sources.hpp"
#include "sim/circuit.hpp"
#include "support/test_configs.hpp"

namespace pllbist::bist {
namespace {

/// The fast test PLL locked to an ideal reference, with a frequency counter
/// on its VCO (nominal 100 kHz).
struct LockedLoop {
  sim::Circuit c;
  sim::SignalId ext_ref, stim;
  pll::SineFmSource source;
  sim::SourceDriver drive;
  pll::CpPll pll;
  FrequencyCounter counter;

  LockedLoop()
      : ext_ref(c.addSignal("ext_ref")),
        stim(c.addSignal("stim")),
        source(c, stim, sourceConfig()),
        drive(c, source),
        pll(c, ext_ref, stim, testing::fastTestConfig()),
        counter(c, pll.vco()) {
    pll.setTestMode(true);
  }

  [[nodiscard]] double nominalHz() const { return pll.config().nominalVcoHz(); }

  static pll::SineFmSource::Config sourceConfig() {
    pll::SineFmSource::Config s;
    s.nominal_hz = testing::fastTestConfig().ref_frequency_hz;
    return s;
  }
};

TEST(FrequencyCounter, CountsOverGate) {
  LockedLoop b;
  b.c.run(0.05);  // lock
  FrequencyCounter::Result result;
  bool done = false;
  b.counter.measure(0.1, [&](FrequencyCounter::Result r) {
    result = r;
    done = true;
  });
  EXPECT_TRUE(b.counter.busy());
  b.c.run(0.2);
  ASSERT_TRUE(done);
  EXPECT_FALSE(b.counter.busy());
  EXPECT_NEAR(static_cast<double>(result.count), b.nominalHz() * 0.1, 1.0);  // +/-1 quantisation
  EXPECT_NEAR(result.frequencyHz(), b.nominalHz(), 10.0);
  EXPECT_DOUBLE_EQ(result.gate_s, 0.1);
}

TEST(FrequencyCounter, PlusMinusOneQuantisation) {
  LockedLoop b;
  b.c.run(0.05);
  // 33.3 VCO periods in the gate: an integer count either side.
  long count = -1;
  b.counter.measure(33.3 / b.nominalHz(), [&](FrequencyCounter::Result r) { count = r.count; });
  b.c.run(0.06);
  EXPECT_TRUE(count == 33 || count == 34) << count;
}

TEST(FrequencyCounter, RejectsOverlappingMeasurements) {
  LockedLoop b;
  b.counter.measure(1.0, [](FrequencyCounter::Result) {});
  EXPECT_THROW(b.counter.measure(1.0, [](FrequencyCounter::Result) {}), std::logic_error);
  EXPECT_THROW(b.counter.measure(0.0, [](FrequencyCounter::Result) {}), std::invalid_argument);
}

TEST(FrequencyCounter, BackToBackMeasurements) {
  LockedLoop b;
  b.c.run(0.05);
  double f1 = 0.0, f2 = 0.0;
  b.counter.measure(0.05, [&](FrequencyCounter::Result r) { f1 = r.frequencyHz(); });
  b.c.run(0.1);
  b.counter.measure(0.05, [&](FrequencyCounter::Result r) { f2 = r.frequencyHz(); });
  b.c.run(0.2);
  EXPECT_NEAR(f1, b.nominalHz(), 25.0);  // +/-1 count over 50 ms is 20 Hz
  EXPECT_NEAR(f2, b.nominalHz(), 25.0);
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
