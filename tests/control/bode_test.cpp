#include "control/bode.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/units.hpp"
#include "control/grid.hpp"
#include "control/second_order.hpp"

namespace pllbist::control {
namespace {

BodeResponse secondOrderResponse(double wn, double zeta, int n = 400) {
  return BodeResponse::compute(TransferFunction::secondOrderLowPass(wn, zeta),
                               logspace(wn / 100.0, wn * 100.0, n));
}

TEST(UnwrapPhase, RemovesWraps) {
  std::vector<double> wrapped{0.0, -170.0, 175.0, 160.0};  // +175 is really -185
  auto un = unwrapPhaseDeg(wrapped);
  EXPECT_DOUBLE_EQ(un[0], 0.0);
  EXPECT_DOUBLE_EQ(un[1], -170.0);
  EXPECT_DOUBLE_EQ(un[2], -185.0);
  EXPECT_DOUBLE_EQ(un[3], -200.0);
}

TEST(UnwrapPhase, NoChangeWhenSmooth) {
  std::vector<double> smooth{0.0, -30.0, -60.0, -90.0};
  EXPECT_EQ(unwrapPhaseDeg(smooth), smooth);
}

TEST(BodeResponse, ComputeRejectsNonPositiveOmega) {
  EXPECT_THROW(BodeResponse::compute(TransferFunction::gain(1.0), {0.0}), std::invalid_argument);
}

TEST(BodeResponse, FromPointsRequiresAscendingOmega) {
  std::vector<BodePoint> pts{{2.0, 0.0, 0.0}, {1.0, 0.0, 0.0}};
  EXPECT_THROW(BodeResponse::fromPoints(pts), std::invalid_argument);
}

TEST(BodeResponse, InterpolationAtSamplePointsIsExact) {
  auto r = secondOrderResponse(100.0, 0.5, 50);
  const BodePoint& p = r.points()[20];
  EXPECT_NEAR(r.magnitudeDbAt(p.omega_rad_per_s), p.magnitude_db, 1e-9);
  EXPECT_NEAR(r.phaseDegAt(p.omega_rad_per_s), p.phase_deg, 1e-9);
}

TEST(BodeResponse, PointAtPairsExactFrequenciesOnly) {
  // A point missing from one response (a timed-out measurement) must not
  // shift the pairing of the others.
  const BodeResponse r = BodeResponse::fromPoints({{1.0, 0.0, -10.0}, {3.0, -6.0, -60.0}});
  ASSERT_NE(r.pointAt(3.0), nullptr);
  EXPECT_EQ(r.pointAt(3.0)->magnitude_db, -6.0);
  EXPECT_EQ(r.pointAt(2.0), nullptr);
  EXPECT_EQ(BodeResponse().pointAt(1.0), nullptr);
}

TEST(BodeResponse, InterpolationOutsideRangeThrows) {
  auto r = secondOrderResponse(100.0, 0.5, 50);
  EXPECT_THROW((void)r.magnitudeDbAt(0.1), std::domain_error);
  EXPECT_THROW((void)r.phaseDegAt(1e6), std::domain_error);
}

TEST(BodeResponse, EmptyResponseThrows) {
  BodeResponse r;
  EXPECT_THROW((void)r.peak(), std::domain_error);
  EXPECT_THROW((void)r.inBandMagnitudeDb(), std::domain_error);
}

TEST(BodeResponse, PeakMatchesClosedFormLocation) {
  const double wn = 100.0, zeta = 0.3;
  auto r = secondOrderResponse(wn, zeta);
  const ResponsePeak pk = r.peak();
  EXPECT_NEAR(pk.omega_rad_per_s, peakFrequency(wn, zeta), wn * 0.01);
  EXPECT_NEAR(pk.magnitude_db, peakingDb(zeta), 0.02);
}

TEST(BodeResponse, PeakingReferencedToInBand) {
  // Scale the system by 7 dB: peaking (relative) must not change.
  TransferFunction h = TransferFunction::secondOrderLowPass(10.0, 0.4) * dbToAmplitude(7.0);
  auto r = BodeResponse::compute(h, logspace(0.1, 1000.0, 300));
  EXPECT_NEAR(r.peakingDb(), peakingDb(0.4), 0.05);
}

TEST(BodeResponse, Bandwidth3DbMatchesClosedForm) {
  const double wn = 100.0, zeta = 0.43;
  auto r = secondOrderResponse(wn, zeta);
  auto w3 = r.bandwidth3Db();
  ASSERT_TRUE(w3.has_value());
  EXPECT_NEAR(*w3, bandwidth3Db(wn, zeta), wn * 0.02);
}

TEST(BodeResponse, Bandwidth3DbAbsentWhenNotSampledFarEnough) {
  // Sample only below the corner: no crossing available.
  auto r = BodeResponse::compute(TransferFunction::secondOrderLowPass(100.0, 0.7),
                                 logspace(1.0, 20.0, 50));
  EXPECT_FALSE(r.bandwidth3Db().has_value());
}

TEST(BodeResponse, PhaseCrossingFindsMinus90) {
  const double wn = 50.0;
  auto r = secondOrderResponse(wn, 0.5);
  auto w = r.phaseCrossing(-90.0);
  ASSERT_TRUE(w.has_value());
  EXPECT_NEAR(*w, wn, wn * 0.02);  // 2nd-order LP crosses -90 deg at wn
}

TEST(BodeResponse, PhaseCrossingAbsentWhenNeverReached) {
  auto r = BodeResponse::compute(TransferFunction::firstOrderLowPass(1.0, 0.01),
                                 logspace(0.1, 10.0, 50));
  EXPECT_FALSE(r.phaseCrossing(-90.0).has_value());
}

TEST(BodeResponse, NormalizedToInBandZeroesFirstPoint) {
  TransferFunction h = TransferFunction::secondOrderLowPass(10.0, 0.4) * 3.0;
  auto r = BodeResponse::compute(h, logspace(0.1, 100.0, 100)).normalizedToInBand();
  EXPECT_NEAR(r.points().front().magnitude_db, 0.0, 1e-12);
  EXPECT_NEAR(r.peak().magnitude_db, peakingDb(0.4), 0.1);
}

TEST(BodeResponse, UnwrappedPhaseMonotoneForAllPole) {
  auto r = secondOrderResponse(10.0, 0.2);
  for (size_t i = 1; i < r.size(); ++i)
    EXPECT_LE(r.points()[i].phase_deg, r.points()[i - 1].phase_deg + 1e-9);
  EXPECT_NEAR(r.points().back().phase_deg, -180.0, 1.0);
}

class PeakAccuracySweep : public ::testing::TestWithParam<double> {};

TEST_P(PeakAccuracySweep, ParabolicRefinementWithinTolerance) {
  const double zeta = GetParam();
  const double wn = 42.0;
  // Deliberately coarse sampling: 25 points/3 decades.
  auto r = BodeResponse::compute(TransferFunction::secondOrderLowPass(wn, zeta),
                                 logspace(wn / 30.0, wn * 30.0, 25));
  EXPECT_NEAR(r.peak().omega_rad_per_s, peakFrequency(wn, zeta), wn * 0.06);
  EXPECT_NEAR(r.peak().magnitude_db, peakingDb(zeta), 0.25);
}

INSTANTIATE_TEST_SUITE_P(Dampings, PeakAccuracySweep, ::testing::Values(0.15, 0.3, 0.43, 0.6));

}  // namespace
}  // namespace pllbist::control
