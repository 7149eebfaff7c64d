#include "bist/delay_line.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "bist/analysis.hpp"
#include "bist/resilient_sweep.hpp"
#include "common/units.hpp"
#include "sim/circuit.hpp"
#include "sim/primitives.hpp"
#include "support/test_configs.hpp"
#include "support/tolerance.hpp"

namespace pllbist::bist {
namespace {

using pllbist::testing::fastSweepOptions;
using pllbist::testing::fastTestConfig;

struct LineBench {
  sim::Circuit c;
  sim::SignalId in;
  sim::SignalId out;
  sim::SignalId marker;
  LineBench() : in(c.addSignal("in")), out(c.addSignal("out")), marker(c.addSignal("marker")) {}
};

DelayLineModulator::Config lineConfig() {
  DelayLineModulator::Config cfg;
  cfg.taps = 9;
  cfg.tap_delay_s = 5e-6;  // span 40 us < Tref/4 = 250 us
  cfg.steps = 10;
  cfg.nominal_hz = 1000.0;
  return cfg;
}

TEST(DelayLineConfig, Validation) {
  DelayLineModulator::Config cfg = lineConfig();
  EXPECT_NO_THROW(cfg.validate());
  cfg.taps = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = lineConfig();
  cfg.tap_delay_s = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = lineConfig();
  cfg.tap_delay_s = 100e-6;  // span 800 us > Tref/4
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(DelayLine, IdleDelaysByMidTap) {
  LineBench b;
  DelayLineModulator line(b.c, b.in, b.out, b.marker, lineConfig());
  sim::EdgeRecorder in_rec(b.c, b.in);
  sim::EdgeRecorder out_rec(b.c, b.out);
  sim::ClockSource src(b.c, b.in, 1e-3, 1e-5);
  b.c.run(0.02);
  ASSERT_GE(out_rec.risingEdges().size(), 3u);
  // Mid tap of 9 taps = index 4 -> delay (1+4)*5us = 25 us.
  EXPECT_NEAR(out_rec.risingEdges()[1] - in_rec.risingEdges()[1], 25e-6, 1e-9);
}

TEST(DelayLine, TapProgramIsSampledSine) {
  LineBench b;
  DelayLineModulator line(b.c, b.in, b.out, b.marker, lineConfig());
  EXPECT_EQ(line.tapForSlot(0), 4);            // mid
  EXPECT_EQ(line.tapForSlot(10), 4);           // wraps
  // Inverted program: phase crest (minimum delay) in the first half.
  EXPECT_LE(line.tapForSlot(2), 1);
  EXPECT_GE(line.tapForSlot(7), 7);
  // Symmetry about the midpoint.
  EXPECT_EQ(line.tapForSlot(1) + line.tapForSlot(6), 8);
}

TEST(DelayLine, PhaseDeviationFormula) {
  LineBench b;
  DelayLineModulator line(b.c, b.in, b.out, b.marker, lineConfig());
  // (taps-1)/2 * tap_delay * 2*pi*fref = 4 * 5us * 2pi * 1000.
  EXPECT_NEAR(line.phaseDeviationRad(), 4.0 * 5e-6 * kTwoPi * 1000.0, 1e-12);
}

TEST(DelayLine, ModulationSwingsOutputPhase) {
  LineBench b;
  DelayLineModulator line(b.c, b.in, b.out, b.marker, lineConfig());
  sim::ClockSource src(b.c, b.in, 1e-3, 1e-5);
  line.start(20.0);
  sim::EdgeRecorder in_rec(b.c, b.in);
  sim::EdgeRecorder out_rec(b.c, b.out);
  b.c.run(0.25);
  // Delay of each output edge relative to its input edge spans the line.
  double dmin = 1.0, dmax = 0.0;
  const size_t n = std::min(in_rec.risingEdges().size(), out_rec.risingEdges().size());
  for (size_t i = 1; i < n; ++i) {
    const double d = out_rec.risingEdges()[i] - in_rec.risingEdges()[i];
    dmin = std::min(dmin, d);
    dmax = std::max(dmax, d);
  }
  EXPECT_NEAR(dmin, 5e-6, 1e-9);    // tap 0 -> (1+0)*5us
  EXPECT_NEAR(dmax, 45e-6, 1e-9);   // tap 8 -> (1+8)*5us
}

TEST(DelayLine, MarkerOncePerPeriod) {
  LineBench b;
  DelayLineModulator line(b.c, b.in, b.out, b.marker, lineConfig());
  sim::ClockSource src(b.c, b.in, 1e-3, 1e-5);
  line.start(20.0);
  sim::EdgeRecorder marker(b.c, b.marker);
  b.c.run(0.3);
  ASSERT_GE(marker.risingEdges().size(), 4u);
  for (size_t i = 1; i < marker.risingEdges().size(); ++i)
    EXPECT_NEAR(marker.risingEdges()[i] - marker.risingEdges()[i - 1], 0.05, 1e-6);
}

TEST(DelayLine, StopReturnsToMidTapAndSilencesMarker) {
  LineBench b;
  DelayLineModulator line(b.c, b.in, b.out, b.marker, lineConfig());
  sim::ClockSource src(b.c, b.in, 1e-3, 1e-5);
  line.start(20.0);
  b.c.run(0.1);
  line.stop();
  sim::EdgeRecorder marker(b.c, b.marker);
  b.c.run(0.3);
  EXPECT_TRUE(marker.risingEdges().empty());
  EXPECT_FALSE(line.running());
}

/// End-to-end: a delay-line PM sweep recovers the same capacitor-node
/// response as the FM methods, normalised absolutely per point.
TEST(DelayLinePmSweep, MatchesCapacitorNodeTheory) {
  const pll::PllConfig cfg = fastTestConfig();
  SweepOptions opt = fastSweepOptions(StimulusKind::DelayLinePm, 7);
  opt.stimulus = StimulusKind::DelayLinePm;
  const MeasuredResponse measured = ResilientSweep(cfg, opt, {.max_attempts = 1}).run().response;
  EXPECT_DOUBLE_EQ(measured.static_reference_deviation_hz, 0.0);  // PM: no DC ref

  const control::BodeResponse bode = measured.toBode();
  const control::TransferFunction cap = cfg.capacitorNodeTf();
  int compared = 0;
  for (const control::BodePoint& p : bode.points()) {
    const double f = radPerSecToHz(p.omega_rad_per_s);
    if (f < 100.0 || f > 700.0) continue;  // PM SNR is poorest at low fm
    EXPECT_DB_NEAR(p.magnitude_db, cap.magnitudeDbAt(p.omega_rad_per_s), 3.0) << f;
    EXPECT_PHASE_NEAR_DEG(p.phase_deg, cap.phaseDegAt(p.omega_rad_per_s), 30.0) << f;
    ++compared;
  }
  EXPECT_GE(compared, 4);
}

TEST(DelayLinePmSweep, ParameterExtractionStillWorks) {
  const pll::PllConfig cfg = fastTestConfig();
  SweepOptions opt = fastSweepOptions(StimulusKind::DelayLinePm, 9);
  opt.stimulus = StimulusKind::DelayLinePm;
  const ExtractedParameters p =
      extractParameters(ResilientSweep(cfg, opt, {.max_attempts = 1}).run().response.toBode());
  ASSERT_TRUE(p.natural_frequency_hz.has_value());
  EXPECT_NEAR(*p.natural_frequency_hz, 200.0, 30.0);
}

}  // namespace
}  // namespace pllbist::bist
