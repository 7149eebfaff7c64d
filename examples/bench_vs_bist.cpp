// Bench-vs-BIST comparison: the conventional closed-loop transfer-function
// measurement (ideal sinusoidal FM, direct analog probe, absolutely
// calibrated — Figure 3 of the paper) against the digital-only on-chip
// BIST, on the same simulated device.
//
// The comparison surfaces the one systematic difference analysed in
// DESIGN.md: the bench sees the true H(jw) including the loop-filter zero,
// while the peak-detect-and-hold BIST captures the capacitor-node response
// H/(1+s*tau2); below the natural frequency the two coincide.

#include <cmath>
#include <cstdio>

#include "baseline/bench_measurement.hpp"
#include "bist/resilient_sweep.hpp"
#include "common/units.hpp"
#include "pll/config.hpp"

int main() {
  using namespace pllbist;

  const pll::PllConfig cfg = pll::scaledTestConfig(200.0, 0.43);
  std::printf("device: fref = %.0f Hz, N = %d, fn = 200 Hz, zeta = 0.43\n\n",
              cfg.ref_frequency_hz, cfg.divider_n);

  // Digital-only BIST sweep.
  bist::SweepOptions bopt = bist::quickSweepOptions(cfg, bist::StimulusKind::MultiToneFsk, 9);
  std::printf("running on-chip BIST sweep (%zu points, multi-tone FSK)...\n",
              bopt.modulation_frequencies_hz.size());
  const bist::MeasuredResponse bist_result =
      bist::ResilientSweep(cfg, bopt, {.max_attempts = 1}).run().response;
  const control::BodeResponse bist_bode = bist_result.toBode();

  // Conventional bench sweep over the same frequencies.
  baseline::BenchOptions benchopt;
  benchopt.deviation_hz = bopt.deviation_hz;
  benchopt.modulation_frequencies_hz = bopt.modulation_frequencies_hz;
  benchopt.lock_wait_s = 0.05;
  std::printf("running conventional bench sweep (analog access)...\n\n");
  const baseline::BenchResult bench_result = baseline::measureBench(cfg, benchopt);
  const control::BodeResponse bench_bode = bench_result.toBode();

  const control::TransferFunction eqn4 = cfg.closedLoopDividedTf();
  const control::TransferFunction cap = cfg.capacitorNodeTf();

  std::printf("%9s | %10s %10s | %10s %10s | %11s %11s\n", "fm (Hz)", "bench dB", "BIST dB",
              "bench deg", "BIST deg", "H thry dB", "cap thry dB");
  for (const control::BodePoint& b : bist_bode.points()) {
    const double w = b.omega_rad_per_s;
    const control::BodePoint* bench = bench_bode.pointAt(w);
    if (bench == nullptr) continue;
    std::printf("%9.1f | %10.2f %10.2f | %10.1f %10.1f | %11.2f %11.2f\n", radPerSecToHz(w),
                bench->magnitude_db, b.magnitude_db, bench->phase_deg, b.phase_deg,
                eqn4.magnitudeDbAt(w), cap.magnitudeDbAt(w));
  }

  // Where do the two methods diverge? Quantify the zero's phase lead.
  std::printf("\nmethod difference vs theory difference (phase at each point):\n");
  std::printf("%9s %18s %22s\n", "fm (Hz)", "bench-BIST (deg)", "argH - argHcap (deg)");
  for (const control::BodePoint& b : bist_bode.points()) {
    const double w = b.omega_rad_per_s;
    const control::BodePoint* bench = bench_bode.pointAt(w);
    if (bench == nullptr) continue;
    double d_meas = bench->phase_deg - b.phase_deg;
    while (d_meas <= -180.0) d_meas += 360.0;
    while (d_meas > 180.0) d_meas -= 360.0;
    const double d_theory = eqn4.phaseDegAt(w) - cap.phaseDegAt(w);
    std::printf("%9.1f %18.1f %22.1f\n", radPerSecToHz(w), d_meas, d_theory);
  }
  std::printf("\nThe measured method-to-method difference tracks atan(w*tau2) — the filter\n"
              "zero — confirming the two instruments disagree for a structural reason, not\n"
              "an implementation artefact. Below fn both agree with both theory curves.\n");
  return 0;
}
