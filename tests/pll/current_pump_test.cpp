#include <gtest/gtest.h>

#include <cmath>

#include "bist/analysis.hpp"
#include "bist/resilient_sweep.hpp"
#include "bist/step_test.hpp"
#include "common/units.hpp"
#include "pll/config.hpp"
#include "pll/cppll.hpp"
#include "pll/probes.hpp"
#include "pll/sources.hpp"
#include "support/test_configs.hpp"

namespace pllbist::pll {
namespace {

/// Closed-loop behaviour of the classic current-steering CP-PLL (type-2
/// loop) — the integrated-PLL flavour, as opposed to the 4046-style
/// voltage pump the paper's board used. The BIST must work on both.

TEST(CurrentPumpConfig, SolvesRequestedResponse) {
  const PllConfig cfg = scaledCurrentPumpConfig(200.0, 0.43);
  const control::SecondOrderParams so = cfg.secondOrder();
  EXPECT_NEAR(radPerSecToHz(so.omega_n_rad_per_s), 200.0, 1e-6);
  EXPECT_NEAR(so.zeta, 0.43, 1e-9);
  EXPECT_EQ(cfg.pump.kind, PumpKind::CurrentSteering);
  EXPECT_TRUE(cfg.closedLoopDividedTf().isStable());
}

TEST(CurrentPumpConfig, RejectsBadTargets) {
  EXPECT_THROW(scaledCurrentPumpConfig(0.0, 0.43), std::invalid_argument);
  EXPECT_THROW(scaledCurrentPumpConfig(200.0, -0.1), std::invalid_argument);
}

struct CurrentLoopBench {
  sim::Circuit c;
  sim::SignalId ext, stim;
  SineFmSource source;
  sim::SourceDriver drive;
  CpPll pll;

  explicit CurrentLoopBench(const PllConfig& cfg)
      : ext(c.addSignal("ext")),
        stim(c.addSignal("stim")),
        source(c, stim, sourceConfig(cfg)),
        drive(c, source),
        pll(c, ext, stim, cfg) {
    pll.setTestMode(true);
  }
  static SineFmSource::Config sourceConfig(const PllConfig& cfg) {
    SineFmSource::Config s;
    s.nominal_hz = cfg.ref_frequency_hz;
    return s;
  }
};

TEST(CurrentPumpLoop, LocksAtNTimesReference) {
  PllConfig cfg = scaledCurrentPumpConfig();
  cfg.pump.initial_vc_v = 2.1;  // start 20 kHz off
  CurrentLoopBench b(cfg);
  LockDetector lock(b.pll, 2e-6, 10);
  b.c.run(0.2);
  EXPECT_TRUE(lock.isLocked());
  EXPECT_NEAR(b.pll.vcoFrequencyNowHz(), cfg.nominalVcoHz(), cfg.nominalVcoHz() * 1e-3);
}

TEST(CurrentPumpLoop, TypeTwoHasNoStaticPhaseError) {
  // A type-2 loop absorbs a VCO center offset with *zero* static phase
  // error (the integrator supplies the DC); pulses collapse to glitches.
  PllConfig cfg = scaledCurrentPumpConfig();
  cfg.vco.center_frequency_hz *= 1.05;  // needs a standing control offset
  CurrentLoopBench b(cfg);
  b.c.run(0.3);
  sim::EdgeRecorder up(b.c, b.pll.pfdUp());
  sim::EdgeRecorder dn(b.c, b.pll.pfdDn());
  b.c.run(0.35);
  auto worstWidth = [](const sim::EdgeRecorder& rec) {
    double worst = 0.0;
    const size_t n = std::min(rec.risingEdges().size(), rec.fallingEdges().size());
    for (size_t i = 0; i < n; ++i)
      worst = std::max(worst, rec.fallingEdges()[i] - rec.risingEdges()[i]);
    return worst;
  };
  EXPECT_LT(worstWidth(up), 2e-6);
  EXPECT_LT(worstWidth(dn), 2e-6);
  EXPECT_NEAR(b.pll.vcoFrequencyNowHz(), cfg.nominalVcoHz(), cfg.nominalVcoHz() * 1e-3);
}

TEST(CurrentPumpLoop, PumpMismatchCreatesStaticPhaseOffset) {
  // Classic CP defect: unequal up/down currents force the loop to park
  // with a compensating phase offset (wider pulses on one side).
  PllConfig cfg = scaledCurrentPumpConfig();
  cfg.pump.up_strength = 0.7;
  CurrentLoopBench b(cfg);
  b.c.run(0.3);
  sim::EdgeRecorder up(b.c, b.pll.pfdUp());
  sim::EdgeRecorder dn(b.c, b.pll.pfdDn());
  b.c.run(0.35);
  double up_total = 0.0, dn_total = 0.0;
  const size_t nu = std::min(up.risingEdges().size(), up.fallingEdges().size());
  for (size_t i = 0; i < nu; ++i) up_total += up.fallingEdges()[i] - up.risingEdges()[i];
  const size_t nd = std::min(dn.risingEdges().size(), dn.fallingEdges().size());
  for (size_t i = 0; i < nd; ++i) dn_total += dn.fallingEdges()[i] - dn.risingEdges()[i];
  // Charge balance: weak up pump needs more up time than down time.
  EXPECT_GT(up_total, 1.2 * dn_total);
}

TEST(CurrentPumpBist, SweepMatchesCapacitorNodeTheory) {
  const PllConfig cfg = scaledCurrentPumpConfig();
  bist::SweepOptions opt = bist::quickSweepOptions(cfg, bist::StimulusKind::MultiToneFsk, 8);
  const bist::MeasuredResponse measured =
      bist::ResilientSweep(cfg, opt, {.max_attempts = 1}).run().response;
  const control::BodeResponse bode = measured.toBode();
  const control::TransferFunction cap = cfg.capacitorNodeTf();
  int compared = 0;
  for (const control::BodePoint& p : bode.points()) {
    const double f = radPerSecToHz(p.omega_rad_per_s);
    if (f > 700.0) continue;
    EXPECT_NEAR(p.magnitude_db, cap.magnitudeDbAt(p.omega_rad_per_s), 2.5) << f;
    EXPECT_NEAR(p.phase_deg, cap.phaseDegAt(p.omega_rad_per_s), 25.0) << f;
    ++compared;
  }
  EXPECT_GE(compared, 5);
}

TEST(CurrentPumpBist, ExtractionRecoversDesign) {
  const PllConfig cfg = scaledCurrentPumpConfig(200.0, 0.43);
  bist::ResilientSweep engine(
      cfg, bist::quickSweepOptions(cfg, bist::StimulusKind::MultiToneFsk, 9), {.max_attempts = 1});
  const bist::ExtractedParameters p = bist::extractParameters(engine.run().response.toBode());
  ASSERT_TRUE(p.zeta.has_value());
  ASSERT_TRUE(p.natural_frequency_hz.has_value());
  EXPECT_NEAR(*p.zeta, 0.43, 0.09);
  EXPECT_NEAR(*p.natural_frequency_hz, 200.0, 30.0);
}

TEST(CurrentPumpBist, StepTestWorks) {
  const PllConfig cfg = scaledCurrentPumpConfig();
  bist::StepTestOptions opt;
  opt.lock_wait_s = 0.05;
  opt.freq_gate_s = 0.05;
  opt.hold_to_gate_delay_s = 2e-4;
  const bist::StepTestResult r = bist::runStepTest(cfg, opt);
  ASSERT_FALSE(r.timed_out);
  ASSERT_TRUE(r.peak_detected);
  ASSERT_TRUE(r.zeta.has_value());
  EXPECT_NEAR(*r.zeta, 0.43, 0.12);
}

}  // namespace
}  // namespace pllbist::pll
