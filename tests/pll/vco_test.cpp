#include "pll/vco.hpp"

#include <gtest/gtest.h>

#include "pll/pump_filter.hpp"
#include "sim/circuit.hpp"
#include "sim/primitives.hpp"
#include "support/gates.hpp"

namespace pllbist::pll {
namespace {

VcoConfig vcoConfig() {
  VcoConfig cfg;
  cfg.center_frequency_hz = 100e3;
  cfg.gain_hz_per_v = 50e3;
  cfg.v_center_v = 2.5;
  cfg.min_frequency_hz = 10e3;
  cfg.max_frequency_hz = 200e3;
  return cfg;
}

PumpFilterConfig filterConfig(double initial_vc) {
  PumpFilterConfig cfg;
  cfg.kind = PumpKind::Voltage4046;
  cfg.r1_ohm = 10e3;
  cfg.r2_ohm = 1e3;
  cfg.c_farad = 1e-6;
  cfg.initial_vc_v = initial_vc;
  return cfg;
}

/// A VCO (no divider) on a filter driven by UP/DN nets, its output recorded.
struct VcoBench {
  sim::Circuit c;
  sim::SignalId up, dn, out;
  testing::NetVco net;
  sim::EdgeRecorder rec;

  explicit VcoBench(double initial_vc = 2.5, VcoConfig vc = vcoConfig())
      : up(c.addSignal("up")),
        dn(c.addSignal("dn")),
        out(c.addSignal("out")),
        net(c, up, dn, out, sim::kNoSignal, filterConfig(initial_vc), vc, 1, 1e-9),
        rec(c, out) {}

  [[nodiscard]] const Vco& vco() const { return net.vco(); }

  double measuredFrequency(double from, double to) {
    int count = 0;
    double first = -1.0, last = -1.0;
    for (double t : rec.risingEdges()) {
      if (t < from || t > to) continue;
      if (first < 0.0) first = t;
      last = t;
      ++count;
    }
    if (count < 2) return 0.0;
    return (count - 1) / (last - first);
  }
};

TEST(VcoConfig, Validation) {
  VcoConfig cfg = vcoConfig();
  cfg.center_frequency_hz = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = vcoConfig();
  cfg.gain_hz_per_v = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = vcoConfig();
  cfg.max_frequency_hz = 5e3;  // below min
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(VcoConfig, TuningLawAndClamps) {
  const VcoConfig cfg = vcoConfig();
  EXPECT_DOUBLE_EQ(cfg.frequencyAt(2.5), 100e3);
  EXPECT_DOUBLE_EQ(cfg.frequencyAt(3.5), 150e3);
  EXPECT_DOUBLE_EQ(cfg.frequencyAt(1.5), 50e3);
  EXPECT_DOUBLE_EQ(cfg.frequencyAt(10.0), 200e3);   // clamp high
  EXPECT_DOUBLE_EQ(cfg.frequencyAt(-10.0), 10e3);   // clamp low
}

TEST(VcoConfig, DefaultMaxIsTwiceCenter) {
  VcoConfig cfg = vcoConfig();
  cfg.max_frequency_hz = 0.0;
  EXPECT_DOUBLE_EQ(cfg.frequencyAt(100.0), 200e3);
}

TEST(Vco, OscillatesAtCenterWithMidRailControl) {
  VcoBench b(2.5);
  b.c.run(10e-3);
  EXPECT_NEAR(b.measuredFrequency(1e-3, 10e-3), 100e3, 100.0);
  EXPECT_NEAR(b.vco().currentFrequencyHz(), 100e3, 1.0);
}

TEST(Vco, FrequencyFollowsControlVoltage) {
  VcoBench b(3.0);  // +0.5 V -> +25 kHz
  b.c.run(10e-3);
  EXPECT_NEAR(b.measuredFrequency(1e-3, 10e-3), 125e3, 150.0);
}

TEST(Vco, TracksChargingFilter) {
  VcoBench b(2.5);
  b.c.scheduleSet(b.up, 0.0, true);  // charge up; frequency must rise
  b.c.run(20e-3);
  const double early = b.measuredFrequency(0.0, 2e-3);
  const double late = b.measuredFrequency(18e-3, 20e-3);
  EXPECT_GT(late, early + 10e3);
}

TEST(Vco, SquareWaveDuty) {
  VcoBench b(2.5);
  b.c.run(5e-3);
  // Rising and falling edges alternate with half-period spacing.
  ASSERT_GE(b.rec.risingEdges().size(), 10u);
  ASSERT_GE(b.rec.fallingEdges().size(), 10u);
  const double half = b.rec.fallingEdges()[5] - b.rec.risingEdges()[5];
  EXPECT_NEAR(half, 0.5 / 100e3, 1e-7);
}

TEST(Vco, ClampsAtTuningRangeEdge) {
  VcoBench b(0.1);  // would be 100k - 2.4*50k < 0 without clamping
  b.c.run(5e-3);
  EXPECT_NEAR(b.measuredFrequency(1e-3, 5e-3), 10e3, 100.0);
}

}  // namespace
}  // namespace pllbist::pll
