#include "pll/config.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/units.hpp"
#include "support/test_configs.hpp"

namespace pllbist::pll {
namespace {

TEST(ReferenceConfig, MatchesPaperAnchors) {
  const PllConfig cfg = referenceConfig();
  // Table 3 anchors: fn = 8 Hz, zeta = 0.43 by construction.
  const control::SecondOrderParams so = cfg.secondOrder();
  EXPECT_NEAR(radPerSecToHz(so.omega_n_rad_per_s), 8.0, 1e-6);
  EXPECT_NEAR(so.zeta, 0.43, 1e-9);
  // Kpd = Vdd/(4*pi) = 0.398 V/rad ("0.4 V/rad").
  EXPECT_NEAR(cfg.kpdVPerRad(), 0.398, 1e-3);
  // Reference divider chain: 1 kHz reference, N = 50, VCO nominal 50 kHz.
  EXPECT_DOUBLE_EQ(cfg.ref_frequency_hz, 1000.0);
  EXPECT_EQ(cfg.divider_n, 50);
  EXPECT_DOUBLE_EQ(cfg.nominalVcoHz(), 50e3);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ReferenceConfig, StimulusParameters) {
  const ReferenceStimulus stim = referenceStimulus();
  EXPECT_DOUBLE_EQ(stim.master_clock_hz, 1e6);
  EXPECT_DOUBLE_EQ(stim.max_deviation_hz, 10.0);
  EXPECT_EQ(stim.fm_steps, 10);
}

TEST(PllConfig, ClosedLoopUnityDcGain) {
  const PllConfig cfg = referenceConfig();
  EXPECT_NEAR(cfg.closedLoopDividedTf().dcGain(), 1.0, 1e-9);
  EXPECT_NEAR(cfg.capacitorNodeTf().dcGain(), 1.0, 1e-9);
  EXPECT_TRUE(cfg.closedLoopDividedTf().isStable());
}

TEST(PllConfig, LinearizedMatchesElectricalValues) {
  const PllConfig cfg = referenceConfig();
  const control::LoopParameters lp = cfg.linearized();
  EXPECT_DOUBLE_EQ(lp.r1_ohm, cfg.pump.r1_ohm);
  EXPECT_DOUBLE_EQ(lp.r2_ohm, cfg.pump.r2_ohm);
  EXPECT_DOUBLE_EQ(lp.c_farad, cfg.pump.c_farad);
  EXPECT_NEAR(lp.kvco_rad_per_s_per_v, kTwoPi * cfg.vco.gain_hz_per_v, 1e-9);
}

TEST(PllConfig, ValidationCatchesBadFields) {
  PllConfig cfg = referenceConfig();
  cfg.ref_frequency_hz = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = referenceConfig();
  cfg.divider_n = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(PllConfig, CurrentPumpSecondOrderFormula) {
  PllConfig cfg = pllbist::testing::fastTestConfig();
  cfg.pump.kind = PumpKind::CurrentSteering;
  cfg.pump.pump_current_a = 100e-6;
  const control::SecondOrderParams so = cfg.secondOrder();
  const double kd = cfg.pump.pump_current_a / kTwoPi;
  const double k = kd * kTwoPi * cfg.vco.gain_hz_per_v;
  const double wn = std::sqrt(k / (cfg.divider_n * cfg.pump.c_farad));
  EXPECT_NEAR(so.omega_n_rad_per_s, wn, wn * 1e-9);
  EXPECT_NEAR(so.zeta, wn * cfg.pump.r2_ohm * cfg.pump.c_farad / 2.0, 1e-9);
}

TEST(PllConfig, CurrentPumpClosedLoopUnityDcGain) {
  PllConfig cfg = pllbist::testing::fastTestConfig();
  cfg.pump.kind = PumpKind::CurrentSteering;
  cfg.pump.pump_current_a = 100e-6;
  EXPECT_NEAR(cfg.closedLoopDividedTf().dcGain(), 1.0, 1e-9);
  EXPECT_TRUE(cfg.closedLoopDividedTf().isStable());
}

TEST(PllConfig, KpdThrowsForCurrentPump) {
  PllConfig cfg = pllbist::testing::fastTestConfig();
  cfg.pump.kind = PumpKind::CurrentSteering;
  cfg.pump.pump_current_a = 100e-6;
  EXPECT_THROW((void)cfg.kpdVPerRad(), std::domain_error);
  EXPECT_THROW((void)cfg.linearized(), std::domain_error);
}

TEST(PllConfig, CapacitorNodeIsPureTwoPole) {
  // The capacitor-node response has no finite zeros.
  const PllConfig cfg = referenceConfig();
  EXPECT_TRUE(cfg.capacitorNodeTf().zeros().empty());
  EXPECT_EQ(cfg.capacitorNodeTf().relativeDegree(), 2);
  // And the closed loop proper has exactly one (the filter zero).
  EXPECT_EQ(cfg.closedLoopDividedTf().zeros().size(), 1u);
}

}  // namespace
}  // namespace pllbist::pll
