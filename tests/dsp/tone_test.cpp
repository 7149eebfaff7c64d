#include "dsp/tone.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "common/units.hpp"

namespace pllbist::dsp {
namespace {

std::vector<double> makeSine(double amp, double f, double phase, double offset, double fs,
                             size_t n) {
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i)
    out[i] = offset + amp * std::sin(kTwoPi * f * static_cast<double>(i) / fs + phase);
  return out;
}

TEST(FitSine, ExactRecovery) {
  const double fs = 5000.0, f = 87.0;
  auto x = makeSine(1.7, f, 0.9, 0.4, fs, 500);
  const ToneFit fit = fitSineUniform(x, fs, f);
  EXPECT_NEAR(fit.amplitude, 1.7, 1e-9);
  EXPECT_NEAR(fit.phase_rad, 0.9, 1e-9);
  EXPECT_NEAR(fit.offset, 0.4, 1e-9);
  EXPECT_NEAR(fit.residual_rms, 0.0, 1e-9);
}

TEST(FitSine, NegativePhaseRecovered) {
  const double fs = 5000.0, f = 87.0;
  auto x = makeSine(1.0, f, -2.5, 0.0, fs, 500);
  const ToneFit fit = fitSineUniform(x, fs, f);
  EXPECT_NEAR(fit.phase_rad, -2.5, 1e-9);
}

TEST(FitSine, RobustToAdditiveNoise) {
  const double fs = 5000.0, f = 87.0;
  auto x = makeSine(1.0, f, 0.5, 0.0, fs, 4000);
  std::mt19937 rng(42);
  std::normal_distribution<double> noise(0.0, 0.1);
  for (double& v : x) v += noise(rng);
  const ToneFit fit = fitSineUniform(x, fs, f);
  EXPECT_NEAR(fit.amplitude, 1.0, 0.01);
  EXPECT_NEAR(fit.phase_rad, 0.5, 0.01);
  EXPECT_NEAR(fit.residual_rms, 0.1, 0.02);
}

TEST(FitSine, IgnoresOrthogonalInterferer) {
  // Fit at f with a strong tone at 3f present: LS fit at a known frequency
  // over whole periods rejects it.
  const double fs = 6000.0, f = 50.0;
  const size_t n = 600;  // 5 whole periods of f
  std::vector<double> x(n);
  for (size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    x[i] = 0.8 * std::sin(kTwoPi * f * t + 1.0) + 2.0 * std::sin(kTwoPi * 3.0 * f * t);
  }
  const ToneFit fit = fitSineUniform(x, fs, f);
  EXPECT_NEAR(fit.amplitude, 0.8, 1e-6);
  EXPECT_NEAR(fit.phase_rad, 1.0, 1e-6);
}

TEST(FitSine, NonUniformSampling) {
  const double f = 10.0;
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> jitter(0.0, 0.3);
  std::vector<double> times, values;
  for (int i = 0; i < 300; ++i) {
    const double t = 0.001 * i + 0.0003 * jitter(rng);
    times.push_back(t);
    values.push_back(2.2 * std::sin(kTwoPi * f * t + 0.7) - 1.0);
  }
  const ToneFit fit = fitSine(times, values, f);
  EXPECT_NEAR(fit.amplitude, 2.2, 1e-9);
  EXPECT_NEAR(fit.phase_rad, 0.7, 1e-9);
  EXPECT_NEAR(fit.offset, -1.0, 1e-9);
}

TEST(FitSine, InputValidation) {
  EXPECT_THROW(fitSine({0.0, 1.0}, {0.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(fitSine({0.0, 1.0}, {0.0, 1.0}, 1.0), std::invalid_argument);  // < 3 samples
  EXPECT_THROW(fitSineUniform({1.0, 2.0, 3.0}, 100.0, 0.0), std::invalid_argument);
  EXPECT_THROW(fitSineUniform({1.0, 2.0, 3.0}, 0.0, 10.0), std::invalid_argument);
}

class FitPhaseSweep : public ::testing::TestWithParam<double> {};

TEST_P(FitPhaseSweep, PhaseRecoveredAcrossFullCircle) {
  const double phase = GetParam();
  const double fs = 8000.0, f = 123.0;
  auto x = makeSine(1.0, f, phase, 0.0, fs, 1000);
  const ToneFit fit = fitSineUniform(x, fs, f);
  // compare on the unit circle to avoid 2*pi ambiguity at +/-pi
  EXPECT_NEAR(std::cos(fit.phase_rad), std::cos(phase), 1e-9);
  EXPECT_NEAR(std::sin(fit.phase_rad), std::sin(phase), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Phases, FitPhaseSweep,
                         ::testing::Values(-3.0, -1.5, -0.5, 0.0, 0.5, 1.5, 3.0));

// --- guard cases ---------------------------------------------------------

TEST(FitSine, RejectsNonFiniteFrequencyInputs) {
  const std::vector<double> t = {0.0, 0.1, 0.2, 0.3};
  const std::vector<double> v = {0.0, 1.0, 0.0, -1.0};
  EXPECT_THROW(fitSine(t, v, -2.5), std::invalid_argument);
  EXPECT_THROW(fitSine(t, v, 0.0), std::invalid_argument);
}

TEST(FitSine, ConstantSignalFitsAsPureOffset) {
  // A constant record contains no tone: the fit must put everything in the
  // offset and report (near) zero amplitude and residual rather than
  // failing on the (well-conditioned) normal equations.
  const double fs = 1000.0, f = 50.0;
  const std::vector<double> v(64, 2.5);
  const ToneFit fit = fitSineUniform(v, fs, f);
  EXPECT_NEAR(fit.offset, 2.5, 1e-9);
  EXPECT_NEAR(fit.amplitude, 0.0, 1e-9);
  EXPECT_NEAR(fit.residual_rms, 0.0, 1e-9);
}

}  // namespace
}  // namespace pllbist::dsp
