#include "control/cppll_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/units.hpp"
#include "control/grid.hpp"

namespace pllbist::control {
namespace {

LoopParameters paperLikeLoop() {
  LoopParameters p;
  p.kpd_v_per_rad = 5.0 / (4.0 * kPi);       // 0.398 V/rad (Vdd = 5 V)
  p.kvco_rad_per_s_per_v = kTwoPi * 38.3e3;  // 38.3 kHz/V
  p.divider_n = 50.0;
  p.c_farad = 470e-9;
  p.r1_ohm = 1.5e6;
  p.r2_ohm = 35e3;
  return p;
}

TEST(LoopParameters, ValidateRejectsBadValues) {
  LoopParameters p = paperLikeLoop();
  p.kpd_v_per_rad = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = paperLikeLoop();
  p.divider_n = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = paperLikeLoop();
  p.c_farad = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(LoopFilterTf, MatchesEqn3) {
  LoopParameters p = paperLikeLoop();
  TransferFunction f = loopFilterTf(p);
  // F(0) = 1; F(inf) = tau2/(tau1+tau2).
  EXPECT_NEAR(f.dcGain(), 1.0, 1e-12);
  const double hf = std::abs(f.atFrequency(1e9));
  EXPECT_NEAR(hf, p.tau2() / (p.tau1() + p.tau2()), 1e-6);
  // Zero at -1/tau2, pole at -1/(tau1+tau2).
  auto zero = f.zeros();
  ASSERT_EQ(zero.size(), 1u);
  EXPECT_NEAR(zero[0].real(), -1.0 / p.tau2(), 1.0 / p.tau2() * 1e-9);
}

TEST(OpenLoopTf, IntegratorAtDc) {
  TransferFunction g = openLoopTf(paperLikeLoop());
  // One pole at the origin: |G| ~ K/w at low frequency.
  EXPECT_THROW((void)g.dcGain(), std::domain_error);
  const double w = 1e-3;
  EXPECT_NEAR(std::abs(g.atFrequency(w)) * w, paperLikeLoop().loopGain(), 1.0);
}

TEST(ClosedLoop, UnityDcGainAtDividedOutput) {
  TransferFunction h = closedLoopDividedTf(paperLikeLoop());
  EXPECT_NEAR(h.dcGain(), 1.0, 1e-12);
  EXPECT_TRUE(h.isStable());
}

TEST(ClosedLoop, VcoOutputDcGainIsN) {
  LoopParameters p = paperLikeLoop();
  EXPECT_NEAR(closedLoopVcoTf(p).dcGain(), p.divider_n, 1e-9);
}

TEST(ClosedLoop, MatchesFeedbackAlgebra) {
  // Denominator construction must equal G/(1+G/N) evaluated numerically.
  LoopParameters p = paperLikeLoop();
  TransferFunction g = openLoopTf(p);
  TransferFunction manual = g.feedback(TransferFunction::gain(1.0 / p.divider_n)) *
                            (1.0 / p.divider_n);
  TransferFunction direct = closedLoopDividedTf(p);
  for (double w : logspace(1.0, 1e4, 40)) {
    const auto a = manual.atFrequency(w);
    const auto b = direct.atFrequency(w);
    EXPECT_NEAR(std::abs(a - b), 0.0, 1e-9 * std::abs(b) + 1e-12) << "w=" << w;
  }
}

TEST(ErrorTf, ComplementsClosedLoop) {
  LoopParameters p = paperLikeLoop();
  TransferFunction e = errorTf(p);
  TransferFunction h = closedLoopDividedTf(p);
  for (double w : logspace(1.0, 1e4, 20)) {
    const auto sum = e.atFrequency(w) + h.atFrequency(w);
    EXPECT_NEAR(sum.real(), 1.0, 1e-9);
    EXPECT_NEAR(sum.imag(), 0.0, 1e-9);
  }
}

TEST(ErrorTf, HighPassShape) {
  TransferFunction e = errorTf(paperLikeLoop());
  EXPECT_NEAR(std::abs(e.atFrequency(1e-3)), 0.0, 1e-4);
  EXPECT_NEAR(std::abs(e.atFrequency(1e6)), 1.0, 1e-3);
}

TEST(CapacitorNodeTf, IsClosedLoopWithZeroDividedOut) {
  LoopParameters p = paperLikeLoop();
  TransferFunction cap = capacitorNodeTf(p);
  TransferFunction h = closedLoopDividedTf(p);
  TransferFunction zero(Polynomial({1.0, p.tau2()}), Polynomial::constant(1.0));
  for (double w : logspace(1.0, 1e4, 30)) {
    const auto lhs = cap.atFrequency(w) * zero.atFrequency(w);
    const auto rhs = h.atFrequency(w);
    EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-9 * std::abs(rhs) + 1e-12);
  }
  EXPECT_NEAR(cap.dcGain(), 1.0, 1e-12);
}

TEST(SecondOrderApprox, Eqn5NaturalFrequency) {
  LoopParameters p = paperLikeLoop();
  const SecondOrderParams approx = approximateSecondOrder(p);
  const double expected = std::sqrt(p.loopGain() / (p.divider_n * (p.tau1() + p.tau2())));
  EXPECT_NEAR(approx.omega_n_rad_per_s, expected, 1e-9);
}

TEST(SecondOrderExact, MatchesDenominatorRoots) {
  LoopParameters p = paperLikeLoop();
  const SecondOrderParams exact = exactSecondOrder(p);
  // Poles of the closed loop must satisfy |s| = wn and Re = -zeta*wn.
  auto poles = closedLoopDividedTf(p).poles();
  ASSERT_EQ(poles.size(), 2u);
  EXPECT_NEAR(std::abs(poles[0]), exact.omega_n_rad_per_s, exact.omega_n_rad_per_s * 1e-6);
  EXPECT_NEAR(poles[0].real(), -exact.zeta * exact.omega_n_rad_per_s,
              exact.omega_n_rad_per_s * 1e-6);
}

TEST(SecondOrderExactVsApprox, ApproxSlightlyUnderestimatesDamping) {
  // eqn (6) drops the +N term, so approximate zeta < exact zeta.
  LoopParameters p = paperLikeLoop();
  EXPECT_LT(approximateSecondOrder(p).zeta, exactSecondOrder(p).zeta);
  EXPECT_NEAR(approximateSecondOrder(p).omega_n_rad_per_s,
              exactSecondOrder(p).omega_n_rad_per_s, 1e-9);
}

TEST(DesignForResponse, HitsRequestedParameters) {
  LoopParameters base = paperLikeLoop();
  base.r1_ohm = base.r2_ohm = 0.0;  // to be solved
  const double wn = hzToRadPerSec(8.0);
  const LoopParameters solved = designForResponse(base, wn, 0.43);
  const SecondOrderParams got = exactSecondOrder(solved);
  EXPECT_NEAR(got.omega_n_rad_per_s, wn, wn * 1e-9);
  EXPECT_NEAR(got.zeta, 0.43, 1e-9);
}

TEST(DesignForResponse, UnreachableDampingThrows) {
  LoopParameters base = paperLikeLoop();
  // Absurdly low damping for this gain: tau2 would go negative.
  EXPECT_THROW(designForResponse(base, hzToRadPerSec(8.0), 1e-6), std::domain_error);
}

class DesignSweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(DesignSweep, RoundTripsThroughExactModel) {
  const auto [fn_hz, zeta] = GetParam();
  LoopParameters base = paperLikeLoop();
  const LoopParameters solved = designForResponse(base, hzToRadPerSec(fn_hz), zeta);
  const SecondOrderParams got = exactSecondOrder(solved);
  EXPECT_NEAR(radPerSecToHz(got.omega_n_rad_per_s), fn_hz, fn_hz * 1e-9);
  EXPECT_NEAR(got.zeta, zeta, 1e-9);
  EXPECT_TRUE(closedLoopDividedTf(solved).isStable());
}

// Note: very light damping at high fn is genuinely unreachable with this
// loop gain (the exact model's "+N" term alone contributes zeta ~ N*wn/2K),
// so the sweep stays inside the feasible region; the infeasible case is
// covered by DesignForResponse.UnreachableDampingThrows.
INSTANTIATE_TEST_SUITE_P(Targets, DesignSweep,
                         ::testing::Combine(::testing::Values(2.0, 8.0, 50.0, 120.0),
                                            ::testing::Values(0.35, 0.43, 0.7, 1.0)));

}  // namespace
}  // namespace pllbist::control
