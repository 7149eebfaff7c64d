#include "core/testplan.hpp"

#include <gtest/gtest.h>

#include "support/test_configs.hpp"

namespace pllbist::core {
namespace {

using pllbist::testing::fastSweepOptions;
using pllbist::testing::fastTestConfig;

bist::SweepOptions planSweep() { return fastSweepOptions(bist::StimulusKind::MultiToneFsk, 8); }

TEST(TestPlan, ToleranceValidation) {
  EXPECT_THROW(TestPlan(fastTestConfig(), planSweep(), 0.0), std::invalid_argument);
  EXPECT_THROW(TestPlan(fastTestConfig(), planSweep(), 1.0), std::invalid_argument);
}

TEST(TestPlan, GoldenDevicePasses) {
  const TestPlan plan(fastTestConfig(), planSweep(), 0.25);
  const TestPlan::DutResult r = plan.screen(fastTestConfig());
  EXPECT_TRUE(r.verdict.pass) << (r.verdict.failures.empty() ? "" : r.verdict.failures[0]);
  EXPECT_FALSE(r.measurement_failed);
}

TEST(TestPlan, GoldenParametersExtracted) {
  const TestPlan plan(fastTestConfig(), planSweep(), 0.25);
  ASSERT_TRUE(plan.goldenParameters().zeta.has_value());
  EXPECT_NEAR(*plan.goldenParameters().zeta, 0.43, 0.08);
  ASSERT_TRUE(plan.limits().min_natural_frequency_hz.has_value());
}

TEST(TestPlan, GrossFrequencyFaultDetected) {
  const TestPlan plan(fastTestConfig(), planSweep(), 0.2);
  // C halved: fn moves by sqrt(2) (about +41%) — outside a 20% band.
  const pll::PllConfig faulty =
      pll::applyFault(fastTestConfig(), {pll::FaultSpec::Kind::FilterCDrift, 0.5});
  const TestPlan::DutResult r = plan.screen(faulty);
  EXPECT_FALSE(r.verdict.pass);
}

TEST(TestPlan, DampingFaultDetected) {
  const TestPlan plan(fastTestConfig(), planSweep(), 0.2);
  // R2 tripled: damping roughly triples, peaking collapses.
  const pll::PllConfig faulty =
      pll::applyFault(fastTestConfig(), {pll::FaultSpec::Kind::FilterR2Drift, 3.0});
  const TestPlan::DutResult r = plan.screen(faulty);
  EXPECT_FALSE(r.verdict.pass);
}

TEST(TestPlan, FaultCoverageReport) {
  const TestPlan plan(fastTestConfig(), planSweep(), 0.2);
  const auto report = plan.faultCoverage(pll::standardFaultSet());
  EXPECT_TRUE(report.golden_passes);
  EXPECT_EQ(report.rows.size(), pll::standardFaultSet().size());
  // The transfer-function signature must catch the bulk of the parametric
  // fault set (the paper's DfT motivation).
  EXPECT_GE(report.coverage(), 0.7) << "coverage " << report.coverage();
}

TEST(TestPlan, CoverageEmptyFaultList) {
  const TestPlan plan(fastTestConfig(), planSweep(), 0.25);
  const auto report = plan.faultCoverage({});
  EXPECT_EQ(report.coverage(), 0.0);
  EXPECT_TRUE(report.rows.empty());
}


TEST(TestPlan, DividerCountFaultCaughtByNominalCheck) {
  // N = 11 instead of 10: fn only shifts by sqrt(10/11) (~5%, inside a 20%
  // band) but the absolute output frequency is 10% high — the nominal
  // check must flag it.
  const TestPlan plan(fastTestConfig(), planSweep(), 0.2);
  const pll::PllConfig faulty =
      pll::applyFault(fastTestConfig(), {pll::FaultSpec::Kind::DividerWrongN, 11.0});
  const TestPlan::DutResult r = plan.screen(faulty);
  EXPECT_FALSE(r.verdict.pass);
  bool nominal_flagged = false;
  for (const auto& f : r.verdict.failures)
    if (f.find("nominal output") != std::string::npos) nominal_flagged = true;
  EXPECT_TRUE(nominal_flagged);
}

TEST(TestPlan, DeadDeviceIsAStatusNotAnException) {
  // Divider counting 25 instead of 10: the loop rails and never locks, so
  // every point times out and no relock succeeds.
  const pll::PllConfig dead =
      pll::applyFault(fastTestConfig(), {pll::FaultSpec::Kind::DividerWrongN, 25.0});
  MeasurementResult m;
  EXPECT_NO_THROW(m = measure(dead, planSweep(), {.max_attempts = 1}));
  EXPECT_EQ(m.status.kind(), Status::Kind::NoValidPoints) << m.status.toString();
  EXPECT_EQ(m.quality.dropped, static_cast<int>(planSweep().modulation_frequencies_hz.size()));

  const TestPlan plan(fastTestConfig(), planSweep(), 0.25);
  const TestPlan::DutResult r = plan.screen(dead);
  EXPECT_TRUE(r.measurement_failed);
  EXPECT_FALSE(r.verdict.pass);
}

TEST(TestPlan, GoldenNominalRecorded) {
  const TestPlan plan(fastTestConfig(), planSweep(), 0.25);
  EXPECT_NEAR(plan.goldenNominalHz(), fastTestConfig().nominalVcoHz(), 50.0);
}

}  // namespace
}  // namespace pllbist::core
