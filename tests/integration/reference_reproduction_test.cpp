#include <gtest/gtest.h>

#include <cmath>

#include "bist/analysis.hpp"
#include "bist/resilient_sweep.hpp"
#include "common/units.hpp"
#include "pll/config.hpp"

namespace pllbist {
namespace {

/// Paper-scale end-to-end reproduction guard: runs the Table 3 device with
/// the Table 3 stimulus (10-step multi-tone FSK from a 1 MHz DCO, +/-10 Hz
/// deviation) and asserts the Figure 10/11/12 anchors. Slower than the
/// module tests (~1 s) but pins the headline result in CI.
class ReferenceReproduction : public ::testing::Test {
 protected:
  static const bist::MeasuredResponse& measured() {
    static const bist::MeasuredResponse result = [] {
      const pll::PllConfig cfg = pll::referenceConfig();
      const pll::ReferenceStimulus stim = pll::referenceStimulus();
      bist::SweepOptions opt;
      opt.stimulus = bist::StimulusKind::MultiToneFsk;
      opt.fm_steps = stim.fm_steps;
      opt.deviation_hz = stim.max_deviation_hz;
      opt.master_clock_hz = stim.master_clock_hz;
      opt.modulation_frequencies_hz = bist::SweepOptions::defaultSweep(8.0, 10);
      return bist::ResilientSweep(cfg, opt, {.max_attempts = 1}).run().response;
    }();
    return result;
  }
};

TEST_F(ReferenceReproduction, NominalAndReferenceCounts) {
  // 50 kHz carrier counted exactly; parked +10 Hz (DCO-quantised to
  // +10.1 Hz) appears as +505 Hz at the VCO (H(0) = 1).
  EXPECT_NEAR(measured().nominal_vco_hz, 50000.0, 2.0);
  EXPECT_NEAR(measured().static_reference_deviation_hz, 505.0, 15.0);
}

TEST_F(ReferenceReproduction, NoTimeouts) {
  for (const auto& p : measured().points) EXPECT_FALSE(p.timed_out) << p.modulation_hz;
}

TEST_F(ReferenceReproduction, MagnitudePeakAnchors) {
  // Figure 11: resonance near fn = 8 Hz. The capacitor-node response peaks
  // at fn*sqrt(1-2*zeta^2) = 6.35 Hz with +2.2 dB.
  const bist::ExtractedParameters p = bist::extractParameters(measured().toBode());
  EXPECT_GT(p.peak_frequency_hz, 5.3);
  EXPECT_LT(p.peak_frequency_hz, 7.5);
  EXPECT_GT(p.peaking_db, 1.5);
  EXPECT_LT(p.peaking_db, 3.3);
}

TEST_F(ReferenceReproduction, ExtractedLoopParametersMatchTable3) {
  const bist::ExtractedParameters p = bist::extractParameters(measured().toBode());
  ASSERT_TRUE(p.zeta.has_value());
  EXPECT_NEAR(*p.zeta, 0.43, 0.08);
  ASSERT_TRUE(p.natural_frequency_hz.has_value());
  EXPECT_NEAR(*p.natural_frequency_hz, 8.0, 1.0);
  ASSERT_TRUE(p.natural_frequency_from_phase_hz.has_value());
  EXPECT_NEAR(*p.natural_frequency_from_phase_hz, 8.0, 1.0);
}

TEST_F(ReferenceReproduction, PhaseAnchorsAtNaturalFrequency) {
  // Figure 12 discussion: the physical capture tracks the capacitor-node
  // curve, -90 degrees at fn (the paper's plotted eqn (4) curve reads -46;
  // see EXPERIMENTS.md for the systematic-difference analysis).
  const control::BodeResponse bode = measured().toBode();
  const double phase_at_fn = bode.phaseDegAt(hzToRadPerSec(8.0));
  EXPECT_NEAR(phase_at_fn, -90.0, 12.0);
  // Monotone decreasing through the band.
  for (size_t i = 1; i < bode.size(); ++i)
    EXPECT_LE(bode.points()[i].phase_deg, bode.points()[i - 1].phase_deg + 3.0);
}

TEST_F(ReferenceReproduction, MagnitudeTracksCapacitorTheoryThroughPeak) {
  const pll::PllConfig cfg = pll::referenceConfig();
  const control::TransferFunction cap = cfg.capacitorNodeTf();
  const control::BodeResponse bode = measured().toBode();
  for (const auto& p : bode.points()) {
    const double f = radPerSecToHz(p.omega_rad_per_s);
    // Through the peak (<= 2*fn) the match is tight; above it the FSK
    // staircase and counter quantisation loosen it.
    const double tol = f <= 16.0 ? 1.6 : 3.5;
    if (f > 30.0) continue;
    EXPECT_NEAR(p.magnitude_db, cap.magnitudeDbAt(p.omega_rad_per_s), tol) << f;
  }
}

}  // namespace
}  // namespace pllbist
