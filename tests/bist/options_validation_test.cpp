#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "bist/sweep_types.hpp"
#include "bist/resilient_sweep.hpp"
#include "bist/sequencer.hpp"
#include "bist/step_test.hpp"
#include "common/status.hpp"
#include "core/campaign.hpp"
#include "support/test_configs.hpp"

namespace pllbist::bist {
namespace {

using pllbist::testing::fastSweepOptions;
using pllbist::testing::fastTestConfig;

SweepOptions goodOptions() { return fastSweepOptions(StimulusKind::MultiToneFsk, 4); }

/// Every rejection must carry InvalidArgument plus a context naming the
/// offending field — the taxonomy's contract with callers.
void expectRejects(const Status& s, const std::string& needle) {
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.kind(), Status::Kind::InvalidArgument) << s.toString();
  EXPECT_NE(s.context().find(needle), std::string::npos)
      << "context \"" << s.context() << "\" does not mention \"" << needle << "\"";
}

TEST(SweepOptionsValidation, AcceptsTheFastDefaults) {
  EXPECT_TRUE(goodOptions().check().ok());
  EXPECT_TRUE(goodOptions().check(fastTestConfig()).ok());
}

TEST(SweepOptionsValidation, RejectsTooFewFmSteps) {
  SweepOptions opt = goodOptions();
  opt.fm_steps = 1;
  expectRejects(opt.check(), "fm_steps");
}

TEST(SweepOptionsValidation, RejectsNonPositiveDeviation) {
  SweepOptions opt = goodOptions();
  opt.deviation_hz = 0.0;
  expectRejects(opt.check(), "deviation_hz");
}

TEST(SweepOptionsValidation, RejectsEmptyModulationList) {
  SweepOptions opt = goodOptions();
  opt.modulation_frequencies_hz.clear();
  expectRejects(opt.check(), "modulation_frequencies_hz");
}

TEST(SweepOptionsValidation, RejectsNonPositiveModulationFrequency) {
  SweepOptions opt = goodOptions();
  opt.modulation_frequencies_hz = {50.0, -10.0, 200.0};
  expectRejects(opt.check(), "modulation_frequencies_hz[1]");
}

TEST(SweepOptionsValidation, RejectsNonAscendingModulationFrequencies) {
  SweepOptions opt = goodOptions();
  opt.modulation_frequencies_hz = {50.0, 200.0, 200.0};
  const Status s = opt.check();
  expectRejects(s, "modulation_frequencies_hz[2]");
  expectRejects(s, "ascending");
}

TEST(SweepOptionsValidation, RejectsNonPositiveMasterClock) {
  SweepOptions opt = goodOptions();
  opt.master_clock_hz = 0.0;
  expectRejects(opt.check(), "master_clock_hz");
  opt.master_clock_hz = -1e6;
  expectRejects(opt.check(), "master_clock_hz");
}

TEST(SweepOptionsValidation, RejectsNegativeJitterAndWaits) {
  SweepOptions opt = goodOptions();
  opt.ref_edge_jitter_rms_s = -1e-9;
  expectRejects(opt.check(), "ref_edge_jitter_rms_s");
  opt = goodOptions();
  opt.lock_wait_s = -1.0;
  expectRejects(opt.check(), "lock_wait_s");
  opt = goodOptions();
  opt.static_settle_s = 0.0;
  expectRejects(opt.check(), "static_settle_s");
}

TEST(SweepOptionsValidation, RejectsBadPmKnobs) {
  SweepOptions opt = goodOptions();
  opt.pm_taps = 1;
  expectRejects(opt.check(), "pm_taps");
  opt = goodOptions();
  opt.pm_tap_delay_s = -1e-6;
  expectRejects(opt.check(), "pm_tap_delay_s");
}

/// Cross-check against the device: a deviation at/above the reference
/// frequency would swing the FM program through 0 Hz.
TEST(SweepOptionsValidation, RejectsDeviationExceedingReferenceFrequency) {
  const pll::PllConfig cfg = fastTestConfig();  // fref = 10 kHz
  SweepOptions opt = goodOptions();
  opt.deviation_hz = cfg.ref_frequency_hz;  // exactly at the limit: rejected
  EXPECT_TRUE(opt.check().ok()) << "options-only check must pass";
  expectRejects(opt.check(cfg), "reference frequency");
  EXPECT_THROW(ResilientSweep(cfg, opt, {.max_attempts = 1}), std::invalid_argument);
}

/// A pure-sine sweep whose jittered edge could land after the next toggle
/// at the crest frequency is refused up front.
TEST(SweepOptionsValidation, RejectsSineJitterWiderThanTheCrestHalfPeriod) {
  const pll::PllConfig cfg = fastTestConfig();  // fref = 10 kHz
  SweepOptions opt = fastSweepOptions(StimulusKind::PureSineFm, 2);
  opt.deviation_hz = 0.9 * cfg.ref_frequency_hz;
  opt.ref_edge_jitter_rms_s = 0.045 / cfg.ref_frequency_hz;  // inside the 5% rule
  expectRejects(opt.check(cfg), "ref_edge_jitter_rms_s");
  EXPECT_THROW(ResilientSweep(cfg, opt, {.max_attempts = 1}), std::invalid_argument);
  opt.deviation_hz = 0.5 * cfg.ref_frequency_hz;  // 6 sigma fits 0.5 / 15 kHz
  EXPECT_TRUE(opt.check(cfg).ok()) << opt.check(cfg).toString();
  opt.stimulus = StimulusKind::MultiToneFsk;  // the DCO draws no jitter
  opt.deviation_hz = 0.9 * cfg.ref_frequency_hz;
  EXPECT_TRUE(opt.check(cfg).ok()) << opt.check(cfg).toString();
}

TEST(SweepOptionsValidation, RejectsMasterClockTooSlowForReference) {
  const pll::PllConfig cfg = fastTestConfig();
  SweepOptions opt = goodOptions();
  opt.master_clock_hz = cfg.ref_frequency_hz;  // DCO cannot synthesise fref
  expectRejects(opt.check(cfg), "master_clock_hz");
}

/// The exception bridge keeps the historical std::invalid_argument type.
TEST(SweepOptionsValidation, ValidateThrowsInvalidArgumentWithContext) {
  SweepOptions opt = goodOptions();
  opt.fm_steps = 0;
  try {
    opt.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("fm_steps"), std::string::npos) << e.what();
  }
}

TEST(SequencerOptionsValidation, RejectsEachBadField) {
  TestSequencer::Options opt;
  opt.settle_periods = 0;
  expectRejects(opt.check(), "settle_periods");
  opt = {};
  opt.average_periods = 0;
  expectRejects(opt.check(), "average_periods");
  opt = {};
  opt.freq_gate_s = 0.0;
  expectRejects(opt.check(), "freq_gate_s");
  opt = {};
  opt.hold_to_gate_delay_s = -1e-6;
  expectRejects(opt.check(), "hold_to_gate_delay_s");
  opt = {};
  opt.timeout_periods = 5.0;  // < settle + average default
  expectRejects(opt.check(), "timeout_periods");
}

TEST(StepTestOptionsValidation, RejectsEachBadField) {
  StepTestOptions opt;
  opt.lock_wait_s = 0.0;
  expectRejects(opt.check(), "lock_wait_s");
  opt = {};
  opt.freq_gate_s = 0.0;
  expectRejects(opt.check(), "freq_gate_s");
}

TEST(ResilientSweepOptionsValidation, RejectsEachBadField) {
  ResilientSweepOptions opt;
  opt.max_attempts = 0;
  expectRejects(opt.check(), "max_attempts");
  opt = {};
  opt.settle_backoff = 0.5;
  expectRejects(opt.check(), "settle_backoff");
  opt = {};
  opt.relock_wait_periods = 0.0;
  expectRejects(opt.check(), "relock_wait_periods");
}

/// NaN passes a `x < 0` check; each budget must refuse it, not read it as
/// "unlimited".
TEST(ResilientSweepOptionsValidation, RejectsNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ResilientSweepOptions opt;
  opt.point_budget_s = nan;
  expectRejects(opt.check(), "point_budget_s");
  opt = {};
  opt.settle_backoff = nan;
  expectRejects(opt.check(), "settle_backoff");
  opt = {};
  opt.relock_wait_periods = nan;
  expectRejects(opt.check(), "relock_wait_periods");
}

TEST(CampaignOptionsValidation, RejectsNaNBudgets) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  core::CampaignOptions opt;
  EXPECT_TRUE(opt.check().ok());
  opt.deadline_s = nan;
  expectRejects(opt.check(), "deadline_s");
  opt = {};
  opt.resilience.point_budget_s = nan;
  expectRejects(opt.check(), "point_budget_s");
}

TEST(StatusTaxonomy, FormatsKindAndContext) {
  const Status s = Status::makef(Status::Kind::Timeout, "watchdog fired at t = %g s", 1.5);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.kind(), Status::Kind::Timeout);
  EXPECT_EQ(s.toString(), "timeout: watchdog fired at t = 1.5 s");
  EXPECT_STREQ(to_string(Status::Kind::RelockFailed), "relock-failed");
  EXPECT_EQ(Status().toString(), "ok");
}

TEST(StatusTaxonomy, ThrowBridgePreservesExceptionTypes) {
  EXPECT_NO_THROW(Status().throwIfError());
  EXPECT_THROW(Status::make(Status::Kind::InvalidArgument, "x").throwIfError(),
               std::invalid_argument);
  EXPECT_THROW(Status::make(Status::Kind::Timeout, "x").throwIfError(), std::runtime_error);
}

}  // namespace
}  // namespace pllbist::bist
