#include "control/transfer_function.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "common/units.hpp"

namespace pllbist::control {
namespace {

TEST(TransferFunction, DefaultIsZero) {
  TransferFunction h;
  EXPECT_EQ(h.evaluate({1.0, 0.0}).real(), 0.0);
}

TEST(TransferFunction, ZeroDenominatorThrows) {
  EXPECT_THROW(TransferFunction(Polynomial::constant(1.0), Polynomial{}), std::invalid_argument);
}

TEST(TransferFunction, GainIsFlat) {
  TransferFunction g = TransferFunction::gain(2.0);
  EXPECT_DOUBLE_EQ(g.magnitudeDbAt(1.0), amplitudeToDb(2.0));
  EXPECT_DOUBLE_EQ(g.magnitudeDbAt(1e6), amplitudeToDb(2.0));
  EXPECT_DOUBLE_EQ(g.phaseDegAt(10.0), 0.0);
  EXPECT_DOUBLE_EQ(g.dcGain(), 2.0);
}

TEST(TransferFunction, IntegratorSlopeAndPhase) {
  TransferFunction i = TransferFunction::integrator(1.0);
  // -20 dB/decade and -90 degrees everywhere.
  EXPECT_NEAR(i.magnitudeDbAt(1.0) - i.magnitudeDbAt(10.0), 20.0, 1e-9);
  EXPECT_NEAR(i.phaseDegAt(3.0), -90.0, 1e-9);
  EXPECT_THROW((void)i.dcGain(), std::domain_error);
}

TEST(TransferFunction, FirstOrderLowPassCorner) {
  TransferFunction h = TransferFunction::firstOrderLowPass(1.0, 1.0);  // corner 1 rad/s
  EXPECT_NEAR(h.magnitudeDbAt(1.0), -3.0103, 1e-3);
  EXPECT_NEAR(h.phaseDegAt(1.0), -45.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.dcGain(), 1.0);
  EXPECT_THROW(TransferFunction::firstOrderLowPass(1.0, -1.0), std::invalid_argument);
}

TEST(TransferFunction, SecondOrderMagnitudeAtNaturalFrequency) {
  const double wn = 100.0, zeta = 0.5;
  TransferFunction h = TransferFunction::secondOrderLowPass(wn, zeta);
  // |H(j wn)| = 1/(2 zeta)
  EXPECT_NEAR(h.magnitudeDbAt(wn), amplitudeToDb(1.0 / (2.0 * zeta)), 1e-9);
  EXPECT_NEAR(h.phaseDegAt(wn), -90.0, 1e-9);
}

TEST(TransferFunction, SeriesIsProduct) {
  TransferFunction a = TransferFunction::firstOrderLowPass(2.0, 0.1);
  TransferFunction b = TransferFunction::gain(3.0);
  TransferFunction c = a.series(b);
  EXPECT_NEAR(std::abs(c.atFrequency(5.0)), std::abs(a.atFrequency(5.0)) * 3.0, 1e-12);
}

TEST(TransferFunction, ParallelIsSum) {
  TransferFunction a = TransferFunction::gain(1.0);
  TransferFunction b = TransferFunction::gain(2.0);
  EXPECT_DOUBLE_EQ((a + b).dcGain(), 3.0);
}

TEST(TransferFunction, UnityFeedbackOfIntegratorIsFirstOrder) {
  // k/s with unity feedback -> k/(s+k): first-order low-pass, corner k.
  const double k = 50.0;
  TransferFunction closed = TransferFunction::integrator(k).unityFeedback();
  EXPECT_NEAR(closed.dcGain(), 1.0, 1e-12);
  EXPECT_NEAR(closed.magnitudeDbAt(k), -3.0103, 1e-3);
}

TEST(TransferFunction, FeedbackMatchesManualAlgebra) {
  // G = 10/(s+1), H = 2: closed = 10/(s+21).
  TransferFunction g(Polynomial::constant(10.0), Polynomial({1.0, 1.0}));
  TransferFunction closed = g.feedback(TransferFunction::gain(2.0));
  EXPECT_NEAR(closed.dcGain(), 10.0 / 21.0, 1e-12);
  const auto at5 = closed.evaluate({-5.0, 0.0});
  EXPECT_NEAR(at5.real(), 10.0 / 16.0, 1e-12);
}

TEST(TransferFunction, PolesAndZeros) {
  // H = (s+2)/((s+1)(s+3))
  TransferFunction h(Polynomial({2.0, 1.0}), Polynomial::fromRoots({-1.0, -3.0}));
  auto zeros = h.zeros();
  ASSERT_EQ(zeros.size(), 1u);
  EXPECT_NEAR(zeros[0].real(), -2.0, 1e-9);
  auto poles = h.poles();
  ASSERT_EQ(poles.size(), 2u);
}

TEST(TransferFunction, StabilityDetection) {
  TransferFunction stable(Polynomial::constant(1.0), Polynomial({1.0, 1.0}));       // pole -1
  TransferFunction unstable(Polynomial::constant(1.0), Polynomial({-1.0, 1.0}));    // pole +1
  TransferFunction marginal(Polynomial::constant(1.0), Polynomial({0.0, 1.0}));     // pole 0
  EXPECT_TRUE(stable.isStable());
  EXPECT_FALSE(unstable.isStable());
  EXPECT_FALSE(marginal.isStable());
}

TEST(TransferFunction, RelativeDegree) {
  TransferFunction h(Polynomial({1.0, 1.0}), Polynomial({1.0, 0.0, 1.0}));
  EXPECT_EQ(h.relativeDegree(), 1);
}

TEST(TransferFunction, ScalarMultiplyScalesMagnitudeOnly) {
  TransferFunction h = TransferFunction::firstOrderLowPass(1.0, 1.0) * 10.0;
  EXPECT_NEAR(h.dcGain(), 10.0, 1e-12);
  EXPECT_NEAR(h.phaseDegAt(1.0), -45.0, 1e-9);
}


/// Algebraic property checks with randomised rational functions: the block
/// algebra must agree with complex arithmetic at every probe frequency.
class TransferFunctionAlgebra : public ::testing::TestWithParam<int> {
 protected:
  static TransferFunction randomStable(std::mt19937& rng) {
    std::uniform_real_distribution<double> pole(-50.0, -0.5);
    std::uniform_real_distribution<double> zero(-80.0, 80.0);
    std::uniform_real_distribution<double> gain(0.1, 10.0);
    Polynomial den = Polynomial::fromRoots({pole(rng), pole(rng)});
    Polynomial num = Polynomial::fromRoots({zero(rng)}) * gain(rng);
    return {num, den};
  }
};

TEST_P(TransferFunctionAlgebra, SeriesParallelFeedbackIdentities) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  const TransferFunction a = randomStable(rng);
  const TransferFunction b = randomStable(rng);
  for (double w : {0.3, 2.0, 11.0, 47.0, 300.0}) {
    const auto va = a.atFrequency(w);
    const auto vb = b.atFrequency(w);
    // series = product
    EXPECT_LT(std::abs(a.series(b).atFrequency(w) - va * vb), 1e-9 * std::abs(va * vb) + 1e-12);
    // parallel = sum
    EXPECT_LT(std::abs(a.parallel(b).atFrequency(w) - (va + vb)),
              1e-9 * std::abs(va + vb) + 1e-12);
    // feedback closure
    const auto closed = a.feedback(b).atFrequency(w);
    EXPECT_LT(std::abs(closed - va / (1.0 + va * vb)), 1e-8 * std::abs(closed) + 1e-12);
    // series is commutative in value
    EXPECT_LT(std::abs(a.series(b).atFrequency(w) - b.series(a).atFrequency(w)), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransferFunctionAlgebra, ::testing::Range(1, 9));

class SecondOrderDampingSweep : public ::testing::TestWithParam<double> {};

TEST_P(SecondOrderDampingSweep, DcGainUnityAndHighFrequencyRollOff) {
  const double zeta = GetParam();
  TransferFunction h = TransferFunction::secondOrderLowPass(10.0, zeta);
  EXPECT_NEAR(h.dcGain(), 1.0, 1e-12);
  // two-pole roll-off: -40 dB/decade well above wn
  EXPECT_NEAR(h.magnitudeDbAt(1e3) - h.magnitudeDbAt(1e4), 40.0, 0.1);
  EXPECT_TRUE(h.isStable());
}

INSTANTIATE_TEST_SUITE_P(Dampings, SecondOrderDampingSweep,
                         ::testing::Values(0.1, 0.3, 0.43, 0.7, 1.0, 2.0));

}  // namespace
}  // namespace pllbist::control
