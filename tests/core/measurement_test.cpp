#include "core/measurement.hpp"

#include <gtest/gtest.h>

#include "baseline/bench_measurement.hpp"
#include "common/units.hpp"
#include "core/characterization.hpp"
#include "support/test_configs.hpp"

namespace pllbist::core {
namespace {

using pllbist::testing::fastSweepOptions;
using pllbist::testing::fastTestConfig;

TEST(Measure, ValidatesConfig) {
  pll::PllConfig bad = fastTestConfig();
  bad.divider_n = 0;
  EXPECT_THROW((void)measure(bad, fastSweepOptions(bist::StimulusKind::MultiToneFsk, 2)),
               std::invalid_argument);
}

TEST(Measure, RunBistProducesConsistentResult) {
  const MeasurementResult r = measure(
      fastTestConfig(), fastSweepOptions(bist::StimulusKind::MultiToneFsk, 6), {.max_attempts = 1});
  EXPECT_TRUE(r.status.ok()) << r.status.toString();
  EXPECT_EQ(r.sweep.points.size(), 6u);
  EXPECT_EQ(r.bode.size(), 6u);
  EXPECT_GT(r.parameters.peaking_db, 0.5);
  EXPECT_NEAR(r.parameters.peak_frequency_hz, 160.0, 40.0);  // omega_p ~ 0.79 fn
}

TEST(Measure, BistAndBenchSeeTheSamePeakLocation) {
  // The two methods measure different nodes (capacitor vs output), but the
  // resonance sits at the same frequency.
  const pll::PllConfig cfg = fastTestConfig();
  const MeasurementResult bist_result =
      measure(cfg, fastSweepOptions(bist::StimulusKind::MultiToneFsk, 8), {.max_attempts = 1});

  baseline::BenchOptions bopt;
  bopt.deviation_hz = 100.0;
  bopt.modulation_frequencies_hz = bist_result.sweep.modulationFrequencies();
  bopt.lock_wait_s = 0.05;
  const baseline::BenchResult bench_result = baseline::measureBench(cfg, bopt);

  const auto bench_peak = bench_result.toBode().peak();
  EXPECT_NEAR(bist_result.parameters.peak_frequency_hz,
              radPerSecToHz(bench_peak.omega_rad_per_s), 40.0);
}

TEST(Characterization, ReportsSmallErrorsOnGoldenDevice) {
  const CharacterizationReport report =
      characterize(fastTestConfig(), fastSweepOptions(bist::StimulusKind::MultiToneFsk, 10));
  EXPECT_NEAR(report.design_fn_hz, 200.0, 1e-6);
  EXPECT_NEAR(report.design_zeta, 0.43, 1e-9);
  EXPECT_LT(report.fn_error, 0.12);
  EXPECT_LT(report.zeta_error, 0.25);
  EXPECT_LT(report.f3db_error, 0.15);
  const std::string text = report.render();
  EXPECT_NE(text.find("fn (Hz)"), std::string::npos);
  EXPECT_NE(text.find("zeta"), std::string::npos);
}

}  // namespace
}  // namespace pllbist::core
