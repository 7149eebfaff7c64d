// Quickstart: measure the closed-loop transfer function of the paper's
// reference CP-PLL with the on-chip BIST (DCO multi-tone FSK stimulus,
// modified-PFD peak detection, loop-hold frequency counting), then extract
// the loop parameters and compare with the linearised theory.
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "bist/analysis.hpp"
#include "bist/resilient_sweep.hpp"
#include "common/units.hpp"
#include "control/bode.hpp"
#include "pll/config.hpp"

int main() {
  using namespace pllbist;

  // 1. The device under test: Table 3 reference configuration (fn = 8 Hz,
  //    zeta = 0.43, 1 kHz reference, N = 50).
  const pll::PllConfig cfg = pll::referenceConfig();
  const control::SecondOrderParams so = cfg.secondOrder();
  std::printf("Device under test: fref = %.0f Hz, N = %d, VCO nominal = %.0f Hz\n",
              cfg.ref_frequency_hz, cfg.divider_n, cfg.nominalVcoHz());
  std::printf("Designed response: fn = %.2f Hz, zeta = %.3f\n\n",
              radPerSecToHz(so.omega_n_rad_per_s), so.zeta);

  // 2. Configure the sweep: 12 log-spaced modulation frequencies, 10-step
  //    multi-tone FSK from a 1 MHz DCO, +/-10 Hz reference deviation.
  bist::SweepOptions opt;
  opt.stimulus = bist::StimulusKind::MultiToneFsk;
  opt.modulation_frequencies_hz = bist::SweepOptions::defaultSweep(8.0, 12);
  std::printf("Measuring %zu points (%s stimulus)...\n", opt.modulation_frequencies_hz.size(),
              to_string(opt.stimulus));

  // One attempt per point, as the paper's sequence runs; the default
  // ResilientSweepOptions would retry a timed-out point.
  bist::ResilientSweep sweep(cfg, opt, {.max_attempts = 1});
  sweep.onPointMeasured([](const bist::MeasuredPoint& p) {
    std::printf("  fm = %7.3f Hz   deviation = %8.2f Hz   phase = %8.2f deg%s\n",
                p.modulation_hz, p.deviation_hz, p.phase_deg, p.timed_out ? "  TIMEOUT" : "");
  });
  const bist::MeasuredResponse measured = sweep.run().response;
  std::printf("Nominal VCO output: %.2f Hz, DC reference deviation: %.2f Hz\n\n",
              measured.nominal_vco_hz, measured.static_reference_deviation_hz);

  // 3. Convert to a Bode response (eqn (7) referencing) and extract the
  //    loop parameters from the *measured* curve.
  const control::BodeResponse bode = measured.toBode();
  const bist::ExtractedParameters params = bist::extractParameters(bode);
  std::printf("Extracted from measurement:\n");
  std::printf("  peak at %.2f Hz, peaking %.2f dB\n", params.peak_frequency_hz, params.peaking_db);
  if (params.zeta) std::printf("  zeta  = %.3f\n", *params.zeta);
  if (params.natural_frequency_hz) std::printf("  fn    = %.2f Hz\n", *params.natural_frequency_hz);
  if (params.bandwidth_3db_hz) std::printf("  f3dB  = %.2f Hz\n", *params.bandwidth_3db_hz);

  // 4. Side-by-side with theory. The peak-detect-and-hold capture measures
  //    the capacitor-node response (the filter zero's lead is invisible to
  //    it), so that is the apples-to-apples theory column; eqn (4) is shown
  //    for reference.
  const control::TransferFunction eqn4 = cfg.closedLoopDividedTf();
  const control::TransferFunction captured = cfg.capacitorNodeTf();
  std::printf("\n%10s | %9s %9s %9s | %10s %10s %10s\n", "fm (Hz)", "meas dB", "cap dB",
              "eqn4 dB", "meas deg", "cap deg", "eqn4 deg");
  for (const control::BodePoint& p : bode.points()) {
    const double f = radPerSecToHz(p.omega_rad_per_s);
    std::printf("%10.3f | %9.2f %9.2f %9.2f | %10.1f %10.1f %10.1f\n", f, p.magnitude_db,
                captured.magnitudeDbAt(p.omega_rad_per_s), eqn4.magnitudeDbAt(p.omega_rad_per_s),
                p.phase_deg, captured.phaseDegAt(p.omega_rad_per_s),
                eqn4.phaseDegAt(p.omega_rad_per_s));
  }
  return 0;
}
