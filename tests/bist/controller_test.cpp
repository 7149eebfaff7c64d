#include "bist/sweep_types.hpp"

#include "bist/analysis.hpp"
#include "bist/resilient_sweep.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/units.hpp"
#include "support/test_configs.hpp"
#include "support/tolerance.hpp"

namespace pllbist::bist {
namespace {

using pllbist::testing::fastSweepOptions;
using pllbist::testing::fastTestConfig;

TEST(SweepOptions, Validation) {
  SweepOptions opt = fastSweepOptions(StimulusKind::MultiToneFsk);
  EXPECT_NO_THROW(opt.validate());
  opt.modulation_frequencies_hz.clear();
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = fastSweepOptions(StimulusKind::MultiToneFsk);
  opt.modulation_frequencies_hz = {100.0, 50.0};  // not ascending
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = fastSweepOptions(StimulusKind::MultiToneFsk);
  opt.deviation_hz = 0.0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = fastSweepOptions(StimulusKind::MultiToneFsk);
  opt.fm_steps = 1;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
}

TEST(SweepOptions, DefaultSweepBracketsNaturalFrequency) {
  const auto sweep = SweepOptions::defaultSweep(8.0, 12);
  ASSERT_EQ(sweep.size(), 12u);
  EXPECT_NEAR(sweep.front(), 2.0, 1e-9);
  EXPECT_NEAR(sweep.back(), 40.0, 1e-9);
  EXPECT_THROW(SweepOptions::defaultSweep(-1.0), std::invalid_argument);
}

TEST(StimulusKind, Names) {
  EXPECT_STREQ(to_string(StimulusKind::MultiToneFsk), "multi-tone-fsk");
  EXPECT_STREQ(to_string(StimulusKind::TwoToneFsk), "two-tone-fsk");
  EXPECT_STREQ(to_string(StimulusKind::PureSineFm), "pure-sine-fm");
}

MeasuredPoint point(double modulation_hz, double deviation_hz, double phase_deg = 0.0,
                    bool timed_out = false) {
  MeasuredPoint p;
  p.modulation_hz = modulation_hz;
  p.deviation_hz = deviation_hz;
  p.phase_deg = phase_deg;
  p.timed_out = timed_out;
  return p;
}

TEST(MeasuredResponse, ToBodeReferencesStaticDeviation) {
  MeasuredResponse r;
  r.nominal_vco_hz = 100e3;
  r.static_reference_deviation_hz = 1000.0;
  r.points.push_back(point(50.0, 1000.0, -5.0));
  r.points.push_back(point(100.0, 500.0, -45.0));
  const auto bode = r.toBode();
  ASSERT_EQ(bode.size(), 2u);
  EXPECT_DB_NEAR(bode.points()[0].magnitude_db, 0.0, 1e-9);
  EXPECT_DB_NEAR(bode.points()[1].magnitude_db, -6.0206, 1e-3);
}

TEST(MeasuredResponse, TimedOutPointsExcluded) {
  MeasuredResponse r;
  r.static_reference_deviation_hz = 1000.0;
  r.points.push_back(point(50.0, 1000.0, -5.0));
  r.points.push_back(point(75.0, -1.0, 0.0, /*timed_out=*/true));
  r.points.push_back(point(100.0, 500.0, -45.0));
  EXPECT_EQ(r.toBode().size(), 2u);
}

TEST(MeasuredResponse, NoUsableReferenceThrows) {
  MeasuredResponse r;
  EXPECT_THROW(r.toBode(), std::domain_error);
  r.points.push_back(point(50.0, -10.0));
  EXPECT_THROW(r.toBode(), std::domain_error);  // negative reference
}

TEST(ResilientSweepEngine, RunIsOneShot) {
  ResilientSweep engine(fastTestConfig(), fastSweepOptions(StimulusKind::MultiToneFsk, 3),
                        {.max_attempts = 1});
  (void)engine.run();
  EXPECT_THROW(engine.run(), std::logic_error);
}

/// End-to-end: the measured response must match the capacitor-node theory
/// within BIST quantisation for each stimulus kind.
class SweepAccuracy : public ::testing::TestWithParam<StimulusKind> {};

TEST_P(SweepAccuracy, MatchesCapacitorNodeTheory) {
  const pll::PllConfig cfg = fastTestConfig();
  const SweepOptions opt = fastSweepOptions(GetParam(), 8);
  const MeasuredResponse measured = ResilientSweep(cfg, opt, {.max_attempts = 1}).run().response;

  EXPECT_NEAR(measured.nominal_vco_hz, cfg.nominalVcoHz(), 25.0);
  EXPECT_NEAR(measured.static_reference_deviation_hz, 100.0 * cfg.divider_n, 60.0);

  const control::BodeResponse bode = measured.toBode();
  const control::TransferFunction cap = cfg.capacitorNodeTf();

  // Two-tone FSK is the paper's own negative result: a square modulation is
  // tracked step-by-step below ~fn/2 (the held peak includes the step
  // overshoot and the fundamental is 4/pi too large), so it only roughly
  // follows the sine/multi-tone curve. Fig. 11/12 show exactly this.
  const bool two_tone = GetParam() == StimulusKind::TwoToneFsk;
  const double fm_min = two_tone ? 100.0 : 0.0;
  const double mag_tol = two_tone ? 4.5 : 2.5;
  const double phase_tol = two_tone ? 45.0 : 25.0;

  int compared = 0;
  for (const control::BodePoint& p : bode.points()) {
    const double f = radPerSecToHz(p.omega_rad_per_s);
    if (f < fm_min || f > 700.0) continue;  // quantisation dominates beyond ~3.5x fn
    EXPECT_DB_NEAR(p.magnitude_db, cap.magnitudeDbAt(p.omega_rad_per_s), mag_tol)
        << to_string(GetParam()) << " fm=" << f;
    EXPECT_PHASE_NEAR_DEG(p.phase_deg, cap.phaseDegAt(p.omega_rad_per_s), phase_tol)
        << to_string(GetParam()) << " fm=" << f;
    ++compared;
  }
  EXPECT_GE(compared, two_tone ? 4 : 5);
}

INSTANTIATE_TEST_SUITE_P(Stimuli, SweepAccuracy,
                         ::testing::Values(StimulusKind::MultiToneFsk, StimulusKind::TwoToneFsk,
                                           StimulusKind::PureSineFm));

TEST(ResilientSweepEngine, ProgressCallbackFiresPerPoint) {
  const SweepOptions opt = fastSweepOptions(StimulusKind::MultiToneFsk, 4);
  ResilientSweep engine(fastTestConfig(), opt, {.max_attempts = 1});
  int calls = 0;
  engine.onPointMeasured([&](const MeasuredPoint&) { ++calls; });
  (void)engine.run();
  EXPECT_EQ(calls, 4);
}

TEST(ResilientSweepEngine, ExtractionRecoversDesignParameters) {
  const pll::PllConfig cfg = fastTestConfig();
  const auto bode =
      ResilientSweep(cfg, fastSweepOptions(StimulusKind::MultiToneFsk, 10), {.max_attempts = 1})
          .run()
          .response.toBode();
  const ExtractedParameters p = extractParameters(bode);
  ASSERT_TRUE(p.zeta.has_value());
  ASSERT_TRUE(p.natural_frequency_hz.has_value());
  EXPECT_NEAR(*p.zeta, 0.43, 0.08);
  EXPECT_NEAR(*p.natural_frequency_hz, 200.0, 20.0);
}


/// Headline-claim property sweep: across a grid of designed (fn, zeta) the
/// BIST sweep must recover the design parameters within tight tolerances.
class ExtractionGrid : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ExtractionGrid, RecoversDesignAcrossDevices) {
  const auto [fn, zeta] = GetParam();
  const pll::PllConfig cfg = pll::scaledTestConfig(fn, zeta);
  ResilientSweep engine(cfg, bist::quickSweepOptions(cfg, StimulusKind::MultiToneFsk, 9),
                        {.max_attempts = 1});
  const ExtractedParameters p = extractParameters(engine.run().response.toBode());
  ASSERT_TRUE(p.natural_frequency_hz.has_value()) << fn << " " << zeta;
  EXPECT_NEAR(*p.natural_frequency_hz, fn, 0.15 * fn) << zeta;
  ASSERT_TRUE(p.zeta.has_value());
  EXPECT_NEAR(*p.zeta, zeta, 0.12) << fn;
}

INSTANTIATE_TEST_SUITE_P(Devices, ExtractionGrid,
                         ::testing::Combine(::testing::Values(100.0, 200.0, 350.0),
                                            ::testing::Values(0.38, 0.5, 0.6)));

}  // namespace
}  // namespace pllbist::bist
