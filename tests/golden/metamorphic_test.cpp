#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bist/resilient_sweep.hpp"
#include "control/grid.hpp"
#include "golden/linear_model.hpp"
#include "pll/config.hpp"
#include "support/tolerance.hpp"

namespace pllbist::golden {
namespace {

// Metamorphic properties: instead of comparing against known-good outputs,
// each test transforms the *input* in a way whose effect on the output is
// known exactly, and checks the relation. These catch whole-pipeline sign
// and scaling errors that pointwise tolerances can absorb.

// Property 1: scaling Ip and C together by the same factor leaves wn
// untouched — wn = sqrt(Ip*Ko/(2*pi*N*C)), the factor cancels. (zeta moves
// with it: zeta = wn*R2*C/2 picks up the C scale.)
TEST(Metamorphic, PumpCurrentCapacitanceScalingLeavesNaturalFrequencyFixed) {
  const pll::PllConfig base = pll::scaledCurrentPumpConfig(220.0, 0.8);
  const GoldenParameters p0 = deriveParameters(base);
  for (double k : {0.5, 2.0, 8.0}) {
    pll::PllConfig scaled = base;
    scaled.pump.pump_current_a *= k;
    scaled.pump.c_farad *= k;
    const GoldenParameters p = deriveParameters(scaled);
    EXPECT_NEAR(p.omega_n_rad_per_s, p0.omega_n_rad_per_s, p0.omega_n_rad_per_s * 1e-12)
        << "k = " << k;
    EXPECT_NEAR(p.zeta, p0.zeta * k, p0.zeta * k * 1e-12) << "k = " << k;
  }
}

// Property 2: doubling the feedback divider halves the loop gain, so fn
// shifts by exactly 1/sqrt(2); the DC gain of the normalised closed loop
// stays 0 dB.
TEST(Metamorphic, DoublingDividerShiftsNaturalFrequencyBySqrtHalf) {
  for (const pll::PllConfig& base :
       {pll::scaledTestConfig(200.0, 0.43), pll::scaledCurrentPumpConfig(200.0, 0.43)}) {
    const GoldenParameters p0 = deriveParameters(base);
    pll::PllConfig doubled = base;
    doubled.divider_n *= 2;
    const GoldenParameters p = deriveParameters(doubled);
    EXPECT_NEAR(p.omega_n_rad_per_s, p0.omega_n_rad_per_s / std::sqrt(2.0),
                p0.omega_n_rad_per_s * 1e-12);
    const GoldenModel model(p);
    EXPECT_NEAR(model.magnitudeDb(1e-4), 0.0, 1e-6);
  }
}

// Property 3: the loop is linear in the stimulus, so halving the FM depth
// halves the measured held deviation and leaves the *normalised* transfer
// curve in place. Runs the real simulator + BIST stack.
TEST(Metamorphic, HalvingFmDepthHalvesMeasuredDeviation) {
  const pll::PllConfig config = pll::scaledTestConfig(200.0, 0.43);
  bist::SweepOptions options =
      bist::quickSweepOptions(config, bist::StimulusKind::MultiToneFsk, 3);
  options.modulation_frequencies_hz = {60.0, 110.0, 200.0};
  // Two quantisers would otherwise swamp the linearity check: the DCO
  // synthesises each FSK step as an integer division of the master clock
  // (step error ~ master/m^2), and the held-output counter resolves ~1
  // count per gate. Raise the master clock 10x and stretch the gate so
  // both stay well under the tolerance at either depth.
  options.deviation_hz = config.ref_frequency_hz * 0.02;
  options.master_clock_hz *= 10.0;
  options.sequencer.freq_gate_s *= 4.0;

  bist::SweepOptions halved = options;
  halved.deviation_hz = options.deviation_hz / 2.0;

  const bist::MeasuredResponse full =
      bist::ResilientSweep(config, options, {.max_attempts = 1}).run().response;
  const bist::MeasuredResponse half =
      bist::ResilientSweep(config, halved, {.max_attempts = 1}).run().response;
  ASSERT_EQ(full.points.size(), half.points.size());

  for (size_t i = 0; i < full.points.size(); ++i) {
    ASSERT_FALSE(full.points[i].timed_out);
    ASSERT_FALSE(half.points[i].timed_out);
    // Raw held deviations scale with the stimulus...
    const double ratio = full.points[i].deviation_hz / half.points[i].deviation_hz;
    EXPECT_NEAR(ratio, 2.0, 0.05) << "fm = " << full.points[i].modulation_hz;
  }
  // ...so the normalised curves coincide (the DC reference halves too).
  const control::BodeResponse bode_full = full.toBode();
  const control::BodeResponse bode_half = half.toBode();
  for (size_t i = 0; i < bode_full.size(); ++i) {
    EXPECT_DB_NEAR(bode_half.points()[i].magnitude_db, bode_full.points()[i].magnitude_db, 0.3)
        << "fm = " << full.points[i].modulation_hz;
  }
}

// Property 4: the normalised response depends only on (f/fn, zeta, tau2*fn).
// Scaling the parameter set by a power of two scales every intermediate by
// exact powers of two, so evaluation at the scaled frequency is not merely
// close — it is bit-identical.
TEST(Metamorphic, TimeAxisScalingIsFloatExact) {
  const GoldenParameters p0 = deriveParameters(pll::scaledTestConfig(200.0, 0.43));
  constexpr double kAlpha = 2.0;  // power of two: exact in binary floating point
  GoldenParameters scaled = p0;
  scaled.omega_n_rad_per_s = p0.omega_n_rad_per_s * kAlpha;
  scaled.tau2_s = p0.tau2_s / kAlpha;
  scaled.loop_gain_per_s = p0.loop_gain_per_s * kAlpha;

  const GoldenModel base(p0);
  const GoldenModel fast(scaled);
  for (ResponseKind kind : {ResponseKind::CapacitorNode, ResponseKind::DividedOutput}) {
    for (double fm : control::logspace(20.0, 2000.0, 13)) {
      EXPECT_EQ(fast.magnitudeDb(fm * kAlpha, kind), base.magnitudeDb(fm, kind))
          << to_string(kind) << " fm = " << fm;
      EXPECT_EQ(fast.phaseDeg(fm * kAlpha, kind), base.phaseDeg(fm, kind))
          << to_string(kind) << " fm = " << fm;
    }
  }
  // The time-domain closed forms scale reciprocally.
  const double tn = 1.0 / base.naturalFrequencyHz();
  for (double t : {0.1 * tn, 0.5 * tn, 2.0 * tn}) {
    EXPECT_EQ(fast.stepResponse(t / kAlpha), base.stepResponse(t)) << "t = " << t;
  }
}

}  // namespace
}  // namespace pllbist::golden
