#include "pll/cppll.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/units.hpp"
#include "control/second_order.hpp"
#include "pll/probes.hpp"
#include "pll/sources.hpp"
#include "sim/primitives.hpp"
#include "sim/trace.hpp"
#include "support/test_configs.hpp"

namespace pllbist::pll {
namespace {

using pllbist::testing::fastTestConfig;

/// Closed-loop bench: ideal reference source + DUT.
struct LoopBench {
  sim::Circuit c;
  sim::SignalId ext_ref;
  sim::SignalId stim;
  sim::SignalId marker;
  SineFmSource source;
  CpPll pll;

  explicit LoopBench(const PllConfig& cfg, double ref_hz)
      : ext_ref(c.addSignal("ext_ref")),
        stim(c.addSignal("stim")),
        marker(c.addSignal("marker")),
        source(c, stim, marker, makeSourceConfig(ref_hz)),
        pll(c, ext_ref, stim, cfg) {
    pll.setTestMode(true);
  }

  static SineFmSource::Config makeSourceConfig(double ref_hz) {
    SineFmSource::Config s;
    s.nominal_hz = ref_hz;
    return s;
  }
};

TEST(CpPll, AcquiresLockAndSettlesAtNTimesRef) {
  PllConfig cfg = fastTestConfig();
  cfg.pump.initial_vc_v = 2.0;  // start 25 kHz off target
  LoopBench b(cfg, cfg.ref_frequency_hz);
  LockDetector lock(b.pll, 2e-6, 10);
  b.c.run(0.1);
  EXPECT_TRUE(lock.isLocked());
  EXPECT_NEAR(b.pll.vcoFrequencyNowHz(), cfg.nominalVcoHz(), cfg.nominalVcoHz() * 1e-3);
}

TEST(LockDetector, LockedLoopLocksAfterHalfAsManyCyclesAsRequiredPulses) {
  // A locked reference cycle ends with two pulses, the UP glitch and the DN
  // glitch, so 10 required pulses are five cycles.
  const PllConfig cfg = fastTestConfig();
  LoopBench b(cfg, cfg.ref_frequency_hz);
  b.c.run(0.08);  // locked
  LockDetector lock(b.pll, 2e-6, 10);
  const double start = b.c.now();
  b.c.run(start + 20.0 / cfg.ref_frequency_hz);
  ASSERT_TRUE(lock.isLocked());
  const double cycles = (lock.lockTime() - start) * cfg.ref_frequency_hz;
  EXPECT_GT(cycles, 4.0);
  EXPECT_LE(cycles, 5.0);
}

TEST(CpPll, LockTimeScalesWithNaturalFrequency) {
  PllConfig slow = fastTestConfig(100.0, 0.43);
  PllConfig fast = fastTestConfig(400.0, 0.43);
  slow.pump.initial_vc_v = fast.pump.initial_vc_v = 2.2;

  auto lockTime = [](const PllConfig& cfg) {
    LoopBench b(cfg, cfg.ref_frequency_hz);
    LockDetector lock(b.pll, 2e-6, 10);
    b.c.run(0.5);
    EXPECT_TRUE(lock.isLocked());
    return lock.lockTime();
  };
  EXPECT_GT(lockTime(slow), lockTime(fast));
}

TEST(CpPll, StaticPhaseErrorNearZeroWhenLocked) {
  const PllConfig cfg = fastTestConfig();
  LoopBench b(cfg, cfg.ref_frequency_hz);
  b.c.run(0.08);
  // After lock the PFD pulses collapse to dead-zone glitches.
  sim::EdgeRecorder up(b.c, b.pll.pfdUp());
  sim::EdgeRecorder dn(b.c, b.pll.pfdDn());
  b.c.run(0.1);
  auto widthBound = [](const sim::EdgeRecorder& rec) {
    double worst = 0.0;
    const size_t n = std::min(rec.risingEdges().size(), rec.fallingEdges().size());
    for (size_t i = 0; i < n; ++i)
      worst = std::max(worst, rec.fallingEdges()[i] - rec.risingEdges()[i]);
    return worst;
  };
  EXPECT_LT(widthBound(up), 3e-6);  // < 3% of the 100 us reference period
  EXPECT_LT(widthBound(dn), 3e-6);
}

TEST(CpPll, FrequencyStepResponseMatchesLinearModel) {
  // Step the reference by 1% and compare the VCO frequency trajectory
  // against the second-order step response (overshoot and settling).
  const PllConfig cfg = fastTestConfig();
  LoopBench b(cfg, cfg.ref_frequency_hz);
  b.c.run(0.05);  // lock

  const double f_step = cfg.ref_frequency_hz * 0.01;
  b.source.setCarrier(cfg.ref_frequency_hz + f_step);

  sim::Trace trace("f_vco");
  AnalogProbe probe(b.c, [&] { return b.pll.vcoFrequencyNowHz(); }, trace, 1e-4, b.c.now());
  b.c.run(b.c.now() + 0.1);

  const double f0 = cfg.nominalVcoHz();
  const double f1 = f0 + f_step * cfg.divider_n;
  // Final value reached.
  EXPECT_NEAR(trace.values().back(), f1, f_step * cfg.divider_n * 0.02);

  // Overshoot close to the zeta = 0.43 prediction for the capacitor-node
  // response; the filter zero adds some extra overshoot, so allow headroom.
  double peak = f0;
  for (double v : trace.values()) peak = std::max(peak, v);
  const double overshoot = (peak - f1) / (f1 - f0);
  const double predicted = control::stepOvershootFraction(cfg.secondOrder().zeta);
  EXPECT_GT(overshoot, predicted * 0.5);
  EXPECT_LT(overshoot, predicted * 2.5);
}

TEST(CpPll, HoldFreezesVcoFrequency) {
  const PllConfig cfg = fastTestConfig();
  LoopBench b(cfg, cfg.ref_frequency_hz);
  b.c.run(0.05);
  const double before = b.pll.vcoFrequencyNowHz();
  b.pll.setHold(true);
  // Push the reference around during hold: the loop must not care. A 1%
  // reference shift would drag the unheld loop by ~1000 Hz; the held loop
  // moves only by the one-off mux-switch transient (a partial pump pulse).
  b.source.setCarrier(cfg.ref_frequency_hz * 1.01);
  b.c.run(b.c.now() + 0.05);
  EXPECT_NEAR(b.pll.vcoFrequencyNowHz(), before, 50.0);
  EXPECT_TRUE(b.pll.holdAsserted());
}

TEST(CpPll, ReacquiresAfterHoldRelease) {
  const PllConfig cfg = fastTestConfig();
  LoopBench b(cfg, cfg.ref_frequency_hz);
  b.c.run(0.05);
  b.pll.setHold(true);
  b.c.run(b.c.now() + 0.02);
  b.pll.setHold(false);
  LockDetector lock(b.pll, 2e-6, 10);
  b.c.run(b.c.now() + 0.08);
  EXPECT_TRUE(lock.isLocked());
  EXPECT_NEAR(b.pll.vcoFrequencyNowHz(), cfg.nominalVcoHz(), cfg.nominalVcoHz() * 1e-3);
}

TEST(CpPll, TracksSlowFrequencyModulation) {
  // Modulate well inside the loop bandwidth: output deviation ~ N * input
  // deviation (|H| ~ 1).
  const PllConfig cfg = fastTestConfig();
  LoopBench b(cfg, cfg.ref_frequency_hz);
  b.c.run(0.05);
  b.source.setModulation(20.0, 100.0);  // fm = fn/10, 1% deviation
  b.c.run(b.c.now() + 0.15);            // settle
  // Probe the capacitor-derived frequency: the instantaneous control node
  // carries +/-9.5 kHz pump-pulse ripple that a min/max sweep would pick
  // up; the capacitor voltage carries the loop-dynamics component only.
  sim::Trace trace("f_vco");
  AnalogProbe probe(
      b.c, [&] { return cfg.vco.frequencyAt(b.pll.filter().capVoltage(b.c.now())); }, trace,
      2e-4, b.c.now());
  b.c.run(b.c.now() + 0.1);  // two modulation periods
  double lo = 1e12, hi = 0.0;
  for (double v : trace.values()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double dev = (hi - lo) / 2.0;
  EXPECT_NEAR(dev, 100.0 * cfg.divider_n, 100.0 * cfg.divider_n * 0.15);
}

TEST(CpPll, PeakDetectionPrinciple) {
  // The physical claim behind the BIST (section 4): in sinusoidal steady
  // state the phase-error zero crossing coincides with the *capacitor
  // voltage* extremum. Verify against simulator ground truth.
  const PllConfig cfg = fastTestConfig();
  LoopBench b(cfg, cfg.ref_frequency_hz);
  b.c.run(0.05);
  const double fm = 150.0;  // near fn where phase errors are large
  b.source.setModulation(fm, 100.0);
  b.c.run(b.c.now() + 5.0 / fm);

  // Record vc and the PFD activity over a few periods.
  sim::Trace vc("vc");
  AnalogProbe probe(b.c, [&] { return b.pll.filter().capVoltage(b.c.now()); }, vc, 2e-5,
                    b.c.now());
  sim::EdgeRecorder up(b.c, b.pll.pfdUp());
  b.c.run(b.c.now() + 3.0 / fm);

  // Find the vc maximum time.
  double t_peak = 0.0, v_peak = -1e9;
  for (size_t i = 0; i < vc.size(); ++i) {
    if (vc.values()[i] > v_peak) {
      v_peak = vc.values()[i];
      t_peak = vc.times()[i];
    }
  }
  // The last long UP pulse before t_peak must end within ~a reference
  // cycle of it (UP pulses stop when the error crosses zero).
  double last_up_before_peak = -1.0;
  for (double t : up.risingEdges())
    if (t < t_peak) last_up_before_peak = t;
  ASSERT_GT(last_up_before_peak, 0.0);
  EXPECT_NEAR(last_up_before_peak, t_peak, 2.5 / cfg.ref_frequency_hz);
}

TEST(CpPll, GroundTruthAccessorsConsistent) {
  const PllConfig cfg = fastTestConfig();
  LoopBench b(cfg, cfg.ref_frequency_hz);
  b.c.run(0.05);
  const double v = b.pll.controlVoltageNow();
  EXPECT_NEAR(b.pll.vcoFrequencyNowHz(), cfg.vco.frequencyAt(v), 1e-9);
}


TEST(CpPll, NormalModeLocksToExternalReference) {
  // M1 in the normal position: the loop follows the external input through
  // the reference divider R (Figure 6's normal signal path).
  PllConfig cfg = fastTestConfig();
  cfg.ref_divider_r = 4;  // external input at 4 x 10 kHz
  sim::Circuit c;
  const auto ext = c.addSignal("ext");
  const auto stim = c.addSignal("stim");  // unused in normal mode
  sim::ClockSource ext_src(c, ext, 1.0 / (4.0 * cfg.ref_frequency_hz));
  CpPll pll(c, ext, stim, cfg);
  // test mode left OFF: M1 selects the divided external reference.
  LockDetector lock(pll, 2e-6, 10);
  c.run(0.1);
  EXPECT_TRUE(lock.isLocked());
  EXPECT_NEAR(pll.vcoFrequencyNowHz(), cfg.nominalVcoHz(), cfg.nominalVcoHz() * 1e-3);
}

TEST(CpPll, TestModeSwitchesBetweenSources) {
  // Start in normal mode on a slightly-off external reference, then switch
  // to test mode with an on-frequency stimulus: the loop must retune.
  PllConfig cfg = fastTestConfig();
  sim::Circuit c;
  const auto ext = c.addSignal("ext");
  const auto stim = c.addSignal("stim");
  sim::ClockSource ext_src(c, ext, 1.0 / (cfg.ref_frequency_hz * 1.02));
  sim::ClockSource stim_src(c, stim, 1.0 / cfg.ref_frequency_hz);
  CpPll pll(c, ext, stim, cfg);
  c.run(0.08);
  EXPECT_NEAR(pll.vcoFrequencyNowHz(), cfg.nominalVcoHz() * 1.02, cfg.nominalVcoHz() * 5e-3);
  pll.setTestMode(true);
  c.run(c.now() + 0.08);
  EXPECT_NEAR(pll.vcoFrequencyNowHz(), cfg.nominalVcoHz(), cfg.nominalVcoHz() * 2e-3);
}

TEST(CpPll, RefDividerValidation) {
  PllConfig cfg = fastTestConfig();
  cfg.ref_divider_r = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

class LockSweep : public ::testing::TestWithParam<double> {};

TEST_P(LockSweep, LocksFromVariousInitialOffsets) {
  PllConfig cfg = fastTestConfig();
  cfg.pump.initial_vc_v = GetParam();
  LoopBench b(cfg, cfg.ref_frequency_hz);
  LockDetector lock(b.pll, 2e-6, 10);
  b.c.run(0.4);
  EXPECT_TRUE(lock.isLocked()) << "initial vc " << GetParam();
  EXPECT_NEAR(b.pll.vcoFrequencyNowHz(), cfg.nominalVcoHz(), cfg.nominalVcoHz() * 2e-3);
}

INSTANTIATE_TEST_SUITE_P(InitialConditions, LockSweep,
                         ::testing::Values(1.0, 1.8, 2.2, 2.8, 3.5, 4.0));

}  // namespace
}  // namespace pllbist::pll
