#include "pll/pfd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "support/gates.hpp"

namespace pllbist::pll {
namespace {

/// Runs the PFD over REF and FB rising edges and reports the UP/DN/reset
/// transitions (testing::PfdRun).
struct PfdBench {
  PfdDelays delays;
  std::vector<double> ref;
  std::vector<double> fb;
  std::optional<testing::PfdRun> run;

  explicit PfdBench(const PfdDelays& d = PfdDelays{}) : delays(d) {}

  /// n reference cycles of the given period with fb skewed by `skew`
  /// (positive = fb lags = ref leads).
  void drive(int n, double period, double skew, double start = 1e-5) {
    for (int k = 0; k < n; ++k) {
      ref.push_back(start + k * period);
      fb.push_back(start + k * period + skew);
    }
    finish(start + (n + 1) * period);
  }

  void finish(double end) { run.emplace(ref, fb, delays, end); }

  static std::vector<double> widths(const testing::PfdRun::Waveform& w) {
    std::vector<double> out;
    const size_t n = std::min(w.rising.size(), w.falling.size());
    for (size_t i = 0; i < n; ++i) out.push_back(w.falling[i] - w.rising[i]);
    return out;
  }
};

TEST(PfdDelays, Validation) {
  PfdDelays d;
  d.and_delay_s = 0.0;
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d = PfdDelays{};
  d.ff_clk_to_q_s = -1e-9;
  EXPECT_THROW(d.validate(), std::invalid_argument);
  EXPECT_NO_THROW(PfdDelays{}.validate());
}

TEST(Pfd, RefLeadingProducesUpPulsesOfSkewWidth) {
  PfdBench b;
  const double skew = 3e-6;
  b.drive(10, 100e-6, skew);
  auto up = PfdBench::widths(b.run->up);
  ASSERT_GE(up.size(), 5u);
  // UP pulse width ~ skew + reset path delay.
  for (size_t i = 1; i < up.size(); ++i) EXPECT_NEAR(up[i], skew, 20e-9) << i;
  // DN shows only dead-zone glitches.
  auto dn = PfdBench::widths(b.run->dn);
  for (size_t i = 1; i < dn.size(); ++i) EXPECT_LT(dn[i], 20e-9) << i;
}

TEST(Pfd, FbLeadingProducesDnPulses) {
  PfdBench b;
  const double skew = -5e-6;  // fb leads
  b.drive(10, 100e-6, skew);
  auto dn = PfdBench::widths(b.run->dn);
  ASSERT_GE(dn.size(), 5u);
  for (size_t i = 1; i < dn.size(); ++i) EXPECT_NEAR(dn[i], 5e-6, 20e-9) << i;
  auto up = PfdBench::widths(b.run->up);
  for (size_t i = 1; i < up.size(); ++i) EXPECT_LT(up[i], 20e-9) << i;
}

TEST(Pfd, AlignedInputsEmitDeadZoneGlitchesOnBoth) {
  PfdBench b;
  b.drive(10, 100e-6, 0.0);
  auto up = PfdBench::widths(b.run->up);
  auto dn = PfdBench::widths(b.run->dn);
  ASSERT_GE(up.size(), 5u);
  ASSERT_GE(dn.size(), 5u);
  const PfdDelays d;
  for (size_t i = 1; i < up.size(); ++i) {
    EXPECT_GT(up[i], 0.0);
    EXPECT_LT(up[i], 4.0 * d.glitchWidth());
  }
  for (size_t i = 1; i < dn.size(); ++i) EXPECT_LT(dn[i], 4.0 * d.glitchWidth());
}

TEST(Pfd, GlitchWidthTracksDelays) {
  PfdDelays slow;
  slow.ff_clk_to_q_s = 20e-9;
  slow.and_delay_s = 15e-9;
  slow.ff_reset_to_q_s = 20e-9;
  PfdBench fast_bench;
  PfdBench slow_bench(slow);
  fast_bench.drive(6, 100e-6, 0.0);
  slow_bench.drive(6, 100e-6, 0.0);
  auto fast_up = PfdBench::widths(fast_bench.run->up);
  auto slow_up = PfdBench::widths(slow_bench.run->up);
  ASSERT_GE(fast_up.size(), 3u);
  ASSERT_GE(slow_up.size(), 3u);
  EXPECT_GT(slow_up[2], fast_up[2]);
}

TEST(Pfd, FrequencyDetection) {
  // REF at 12 kHz vs FB at 10 kHz: UP must dominate (frequency detector
  // behaviour, not just phase).
  PfdBench b;
  for (int k = 0; k < 60; ++k) b.ref.push_back(1e-6 + k * (1.0 / 12e3));
  for (int k = 0; k < 50; ++k) b.fb.push_back(1e-6 + k * (1.0 / 10e3));
  b.finish(5.2e-3);
  double up_total = 0.0, dn_total = 0.0;
  for (double w : PfdBench::widths(b.run->up)) up_total += w;
  for (double w : PfdBench::widths(b.run->dn)) dn_total += w;
  EXPECT_GT(up_total, 5.0 * dn_total);
}

TEST(Pfd, ResetNetPulsesOncePerCycle) {
  PfdBench b;
  b.drive(8, 100e-6, 2e-6);
  // One reset (dead-zone overlap) per reference cycle.
  EXPECT_NEAR(static_cast<double>(b.run->rst.rising.size()), 8.0, 1.0);
}

TEST(Pfd, OutputsNeverBothHighForLong) {
  PfdBench b;
  b.drive(20, 50e-6, 7e-6);
  // Reconstruct overlap from edges: both high only during the glitch.
  // Simple check: every UP fall follows the corresponding DN rise by at
  // most the reset-path delay budget.
  const auto& up_fall = b.run->up.falling;
  const auto& dn_rise = b.run->dn.rising;
  const size_t n = std::min(up_fall.size(), dn_rise.size());
  for (size_t i = 0; i < n; ++i) EXPECT_LT(up_fall[i] - dn_rise[i], 30e-9);
}

}  // namespace
}  // namespace pllbist::pll
