#include "support/phase_integrator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "golden/linear_model.hpp"
#include "pll/config.hpp"
#include "support/tolerance.hpp"

namespace pllbist::golden {
namespace {

// The two references share no code: the integrator works on the raw
// electrical ODEs, the model on the derived (wn, zeta, tau2). Both solve
// the same linear plant exactly, so agreement should be limited only by
// RK4 step error and the residual start-up transient — well under the
// band tolerances the BIST comparison later uses.
constexpr double kMagTolDb = 0.05;
constexpr double kPhaseTolDeg = 0.5;

TEST(PhaseIntegrator, MatchesOracleVoltagePumpCapacitorNode) {
  const pll::PllConfig config = pll::scaledTestConfig(200.0, 0.43);
  const GoldenModel model(config);
  for (double fm : {60.0, 150.0, 200.0, 340.0}) {
    const IntegratorPoint p = integratePoint(config, fm, 10.0, ResponseKind::CapacitorNode);
    EXPECT_DB_NEAR(p.magnitude_db, model.magnitudeDb(fm), kMagTolDb) << "fm = " << fm;
    EXPECT_PHASE_NEAR_DEG(p.phase_deg, model.phaseDeg(fm), kPhaseTolDeg) << "fm = " << fm;
  }
}

TEST(PhaseIntegrator, MatchesOracleVoltagePumpDividedOutput) {
  const pll::PllConfig config = pll::scaledTestConfig(200.0, 0.43);
  const GoldenModel model(config);
  for (double fm : {60.0, 200.0, 340.0}) {
    const IntegratorPoint p = integratePoint(config, fm, 10.0, ResponseKind::DividedOutput);
    EXPECT_DB_NEAR(p.magnitude_db, model.magnitudeDb(fm, ResponseKind::DividedOutput), kMagTolDb)
        << "fm = " << fm;
    EXPECT_PHASE_NEAR_DEG(p.phase_deg, model.phaseDeg(fm, ResponseKind::DividedOutput),
                          kPhaseTolDeg)
        << "fm = " << fm;
  }
}

TEST(PhaseIntegrator, MatchesOracleCurrentPumpBothKinds) {
  const pll::PllConfig config = pll::scaledCurrentPumpConfig(180.0, 0.9);
  const GoldenModel model(config);
  for (ResponseKind kind : {ResponseKind::CapacitorNode, ResponseKind::DividedOutput}) {
    for (double fm : {70.0, 180.0, 300.0}) {
      const IntegratorPoint p = integratePoint(config, fm, 10.0, kind);
      EXPECT_DB_NEAR(p.magnitude_db, model.magnitudeDb(fm, kind), kMagTolDb)
          << to_string(kind) << " fm = " << fm;
      EXPECT_PHASE_NEAR_DEG(p.phase_deg, model.phaseDeg(fm, kind), kPhaseTolDeg)
          << to_string(kind) << " fm = " << fm;
    }
  }
}

TEST(PhaseIntegrator, ResidualIsSmallRelativeToSignal) {
  const pll::PllConfig config = pll::scaledTestConfig(200.0, 0.6);
  const IntegratorPoint p = integratePoint(config, 150.0, 10.0);
  // The fitted signal amplitude is ~N*dev = 100 Hz; the linear loop's
  // response is a pure sine, so the fit residual must be tiny.
  EXPECT_GE(p.residual_rms, 0.0);
  EXPECT_LT(p.residual_rms, 1.0);
}

TEST(PhaseIntegrator, SweepPreservesOrderAndSize) {
  const pll::PllConfig config = pll::scaledTestConfig(200.0, 0.43);
  const std::vector<double> grid = {80.0, 160.0, 320.0};
  const std::vector<IntegratorPoint> pts = integrateSweep(config, grid, 10.0);
  ASSERT_EQ(pts.size(), grid.size());
  for (size_t i = 0; i < grid.size(); ++i) EXPECT_DOUBLE_EQ(pts[i].fm_hz, grid[i]);
  // Magnitude rolls off between the in-band point and the far point.
  EXPECT_GT(pts.front().magnitude_db, pts.back().magnitude_db);
}

TEST(PhaseIntegrator, RejectsBadArguments) {
  const pll::PllConfig config = pll::scaledTestConfig();
  EXPECT_THROW(integratePoint(config, 0.0, 10.0), std::invalid_argument);
  EXPECT_THROW(integratePoint(config, 100.0, 0.0), std::invalid_argument);
  PhaseIntegratorOptions coarse;
  coarse.steps_per_period = 4;
  EXPECT_THROW(integratePoint(config, 100.0, 10.0, ResponseKind::CapacitorNode, coarse),
               std::invalid_argument);
}

}  // namespace
}  // namespace pllbist::golden
