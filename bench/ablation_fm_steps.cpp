// Ablation A: how many FSK steps does the discrete FM need? Sweeps the
// multi-tone step count and reports the RMS magnitude/phase error of the
// BIST measurement against the pure-sine reference sweep. Backs the
// paper's choice of 10 steps (and its observation that the 10-step FSK
// curve matches the sinusoidal one).

#include <cmath>
#include <cstdio>

#include "bist/resilient_sweep.hpp"
#include "common/units.hpp"
#include "pll/config.hpp"
#include "support/bench_util.hpp"

int main() {
  using namespace pllbist;
  benchutil::printHeader("Ablation A - multi-tone FSK step count vs measurement fidelity");

  const pll::PllConfig cfg = pll::referenceConfig();
  bist::SweepOptions base;
  base.deviation_hz = 10.0;
  base.master_clock_hz = 1e6;
  base.modulation_frequencies_hz = bist::SweepOptions::defaultSweep(8.0, 9);

  // Reference: ideal sinusoidal FM.
  bist::SweepOptions sine_opt = base;
  sine_opt.stimulus = bist::StimulusKind::PureSineFm;
  std::printf("\nrunning pure-sine reference sweep...\n");
  const control::BodeResponse reference =
      bist::ResilientSweep(cfg, sine_opt, {.max_attempts = 1}).run().response.toBode();

  std::printf("\n%8s %14s %16s %10s\n", "steps", "mag RMS (dB)", "phase RMS (deg)", "points");
  for (int steps : {2, 4, 6, 10, 20, 40}) {
    bist::SweepOptions opt = base;
    opt.stimulus = bist::StimulusKind::MultiToneFsk;
    opt.fm_steps = steps;
    const control::BodeResponse measured =
        bist::ResilientSweep(cfg, opt, {.max_attempts = 1}).run().response.toBode();

    double mag_ss = 0.0, ph_ss = 0.0;
    int n = 0;
    for (const control::BodePoint& m : measured.points()) {
      const control::BodePoint* r = reference.pointAt(m.omega_rad_per_s);
      if (r == nullptr) continue;
      const double dm = m.magnitude_db - r->magnitude_db;
      double dp = m.phase_deg - r->phase_deg;
      while (dp > 180.0) dp -= 360.0;
      while (dp <= -180.0) dp += 360.0;
      mag_ss += dm * dm;
      ph_ss += dp * dp;
      ++n;
    }
    if (n == 0) {
      std::printf("%8d %14s %16s %10d  (all points timed out: stimulus unusable)\n", steps,
                  "-", "-", n);
    } else {
      std::printf("%8d %14.2f %16.1f %10d\n", steps, std::sqrt(mag_ss / n), std::sqrt(ph_ss / n),
                  n);
    }
  }

  std::printf(
      "\nExpectation: error drops steeply up to ~10 steps, then flattens — the loop's\n"
      "low-pass action (paper section 3) filters the staircase, so finer steps stop\n"
      "paying once the slot rate is far above the loop bandwidth. Two steps is the\n"
      "degenerate two-tone square case.\n");
  return 0;
}
