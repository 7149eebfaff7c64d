#include "bist/step_test.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/units.hpp"
#include "control/second_order.hpp"
#include "support/test_configs.hpp"

namespace pllbist::bist {
namespace {

using pllbist::testing::fastTestConfig;

StepTestOptions fastOptions() {
  StepTestOptions opt;
  opt.lock_wait_s = 0.05;
  opt.freq_gate_s = 0.05;
  opt.hold_to_gate_delay_s = 2e-4;
  return opt;
}

TEST(StepTestOptions, Validation) {
  StepTestOptions opt = fastOptions();
  EXPECT_NO_THROW(opt.validate());
  opt.freq_gate_s = 0.0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
}

TEST(StepTest, TracksTheReferenceStep) {
  const pll::PllConfig cfg = fastTestConfig();
  const StepTestResult r = runStepTest(cfg, fastOptions());
  ASSERT_FALSE(r.timed_out);
  ASSERT_TRUE(r.peak_detected);
  EXPECT_NEAR(r.nominal_hz, cfg.nominalVcoHz(), 30.0);
  // 1% reference step -> 1% output step (DC gain 1 at divided output).
  EXPECT_NEAR(r.target_hz - r.nominal_hz, cfg.nominalVcoHz() * 0.01, 60.0);
  EXPECT_GT(r.peak_hz, r.target_hz);  // underdamped loop overshoots
}

TEST(StepTest, OvershootMatchesSecondOrderTheoryWithSamplingExcess) {
  const pll::PllConfig cfg = fastTestConfig();  // zeta = 0.43, fn/fref = 1/50
  const StepTestResult r = runStepTest(cfg, fastOptions());
  ASSERT_FALSE(r.timed_out);
  // Capacitor-node transient: textbook overshoot for zeta = 0.43 is 22.4%.
  // The sampled PFD (one correction opportunity per reference cycle) adds
  // phase lag ~ wn*Tref, so the real loop overshoots *more* than the
  // continuous-time model — by construction never less.
  const double theory = control::stepOvershootFraction(0.43);
  EXPECT_GT(r.overshoot_fraction, theory - 0.02);
  EXPECT_LT(r.overshoot_fraction, theory + 0.12);
}

TEST(StepTest, SamplingExcessShrinksForSlowerLoops) {
  // Halving fn halves wn*Tref; the measured overshoot must move toward the
  // continuous-time value.
  const StepTestResult fast = runStepTest(fastTestConfig(200.0, 0.43), fastOptions());
  StepTestOptions slow_opt = fastOptions();
  slow_opt.lock_wait_s = 0.1;
  slow_opt.freq_gate_s = 0.1;
  const StepTestResult slow = runStepTest(fastTestConfig(50.0, 0.43), slow_opt);
  ASSERT_FALSE(fast.timed_out);
  ASSERT_FALSE(slow.timed_out);
  const double theory = control::stepOvershootFraction(0.43);
  EXPECT_LT(std::abs(slow.overshoot_fraction - theory),
            std::abs(fast.overshoot_fraction - theory) + 0.02);
}

TEST(StepTest, ExtractsLoopParameters) {
  const pll::PllConfig cfg = fastTestConfig();
  const StepTestResult r = runStepTest(cfg, fastOptions());
  ASSERT_TRUE(r.zeta.has_value());
  ASSERT_TRUE(r.natural_frequency_hz.has_value());
  EXPECT_NEAR(*r.zeta, 0.43, 0.09);
  EXPECT_NEAR(*r.natural_frequency_hz, 200.0, 30.0);
}

TEST(StepTest, RelockTimeScalesWithBandwidth) {
  StepTestOptions opt = fastOptions();
  const StepTestResult slow = runStepTest(fastTestConfig(100.0, 0.43), opt);
  const StepTestResult fast = runStepTest(fastTestConfig(400.0, 0.43), opt);
  ASSERT_FALSE(slow.timed_out);
  ASSERT_FALSE(fast.timed_out);
  EXPECT_GT(slow.relock_time_s, fast.relock_time_s);
  EXPECT_GT(slow.peak_time_s, fast.peak_time_s);
}

TEST(StepTest, DetectsDampingFault) {
  // R2 tripled (zeta ~3x): overshoot collapses.
  pll::PllConfig faulty = fastTestConfig();
  faulty.pump.r2_ohm *= 3.0;
  const StepTestResult golden = runStepTest(fastTestConfig(), fastOptions());
  const StepTestResult r = runStepTest(faulty, fastOptions());
  ASSERT_FALSE(r.timed_out);
  // Near-critically-damped: either no reversal is detected at all or the
  // captured overshoot collapses.
  EXPECT_TRUE(!r.peak_detected || r.overshoot_fraction < golden.overshoot_fraction * 0.4);
}

class StepZetaSweep : public ::testing::TestWithParam<double> {};

TEST_P(StepZetaSweep, ZetaRecoveredFromSingleTransient) {
  const double zeta = GetParam();
  const StepTestResult r = runStepTest(fastTestConfig(200.0, zeta), fastOptions());
  ASSERT_FALSE(r.timed_out);
  ASSERT_TRUE(r.zeta.has_value()) << "zeta=" << zeta;
  EXPECT_NEAR(*r.zeta, zeta, 0.1) << "zeta=" << zeta;
}

INSTANTIATE_TEST_SUITE_P(Zetas, StepZetaSweep, ::testing::Values(0.35, 0.43, 0.55, 0.65));

}  // namespace
}  // namespace pllbist::bist
