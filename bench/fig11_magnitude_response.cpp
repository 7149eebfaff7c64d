// Figure 11: measured magnitude response of the reference PLL via the
// on-chip BIST, for pure sinusoidal FM, two-tone FSK, and ten-step
// multi-tone FSK, against theory.
//
// Paper anchors reproduced:
//  - peak near fn = 8 Hz,
//  - the ten-step multi-tone FSK curve closely follows the pure-sine one,
//  - the two-tone FSK curve deviates (square modulation),
//  - measured magnitudes referenced to the in-band (0 dB) measurement.
//
// Note on theory columns: the hold-at-PFD-reversal capture physically
// measures the *capacitor node* response H/(1+s*tau2); eqn (4) is also
// printed. See DESIGN.md and EXPERIMENTS.md for the discussion.

#include <cmath>
#include <cstdio>

#include "common/units.hpp"
#include "control/bode.hpp"
#include "golden/differential.hpp"
#include "golden/linear_model.hpp"
#include "pll/config.hpp"
#include "support/bench_util.hpp"
#include "support/reference_sweeps.hpp"

int main() {
  using namespace pllbist;
  benchutil::printHeader("Figure 11 - measured magnitude response (BIST)");

  const pll::PllConfig cfg = pll::referenceConfig();
  benchutil::SweepSet sweeps = benchutil::runReferenceSweeps();

  const control::BodeResponse sine = sweeps.pure_sine.toBode();
  const control::BodeResponse two = sweeps.two_tone.toBode();
  const control::BodeResponse multi = sweeps.multi_tone.toBode();
  const control::TransferFunction cap = cfg.capacitorNodeTf();
  const control::TransferFunction eqn4 = cfg.closedLoopDividedTf();

  std::printf("\n%9s | %10s %10s %10s | %9s %9s\n", "f (Hz)", "pure sine", "two-tone",
              "multi-10", "cap thry", "eqn4");
  for (double f : sweeps.frequencies_hz) {
    const double w = hzToRadPerSec(f);
    std::printf("%9.3f |", radPerSecToHz(w));
    for (const control::BodeResponse* r : {&sine, &two, &multi})
      benchutil::printBodeCell(r->pointAt(w), &control::BodePoint::magnitude_db, 10, 2);
    std::printf(" | %9.2f %9.2f\n", cap.magnitudeDbAt(w), eqn4.magnitudeDbAt(w));
  }

  benchutil::printSubHeader("anchors");
  const auto peak = multi.peak();
  std::printf("multi-tone peak: %.2f dB at %.2f Hz  (paper: peak near fn = 8 Hz)\n",
              multi.peakingDb(), radPerSecToHz(peak.omega_rad_per_s));
  std::printf("in-band reference deviations: sine %.1f Hz, two-tone %.1f Hz, multi %.1f Hz\n",
              sweeps.pure_sine.static_reference_deviation_hz,
              sweeps.two_tone.static_reference_deviation_hz,
              sweeps.multi_tone.static_reference_deviation_hz);

  // RMS deviation from the pure-sine curve, split at 2*fn: the paper's
  // plotted comparison region is around/below the peak, where the stimulus
  // quality dominates; above it counter quantisation takes over.
  for (double fmax : {16.0, 1e9}) {
    double rms_multi = 0.0, rms_two = 0.0;
    int n = 0;
    for (const control::BodePoint& sp : sine.points()) {
      if (radPerSecToHz(sp.omega_rad_per_s) > fmax) break;
      const control::BodePoint* m = multi.pointAt(sp.omega_rad_per_s);
      const control::BodePoint* t = two.pointAt(sp.omega_rad_per_s);
      if (m == nullptr || t == nullptr) continue;
      const double s = sp.magnitude_db;
      rms_multi += (m->magnitude_db - s) * (m->magnitude_db - s);
      rms_two += (t->magnitude_db - s) * (t->magnitude_db - s);
      ++n;
    }
    std::printf("RMS deviation from pure sine (%s): multi-tone %.2f dB, two-tone %.2f dB\n",
                fmax < 1e8 ? "fm <= 2*fn" : "full sweep", std::sqrt(rms_multi / n),
                std::sqrt(rms_two / n));
  }
  std::printf("(paper: \"the ideal sinusoidal FM plot closely corresponds to the ten-step\n"
              " FS plot\" while the two-tone comparison deviates)\n");

  benchutil::printSubHeader("magnitude plot (dB)");
  auto toSeries = [](const control::BodeResponse& r, const char* label, char sym) {
    benchutil::Series s{label, sym, {}, {}};
    for (const auto& p : r.points()) {
      s.x.push_back(radPerSecToHz(p.omega_rad_per_s));
      s.y.push_back(p.magnitude_db);
    }
    return s;
  };
  std::printf("%s", benchutil::asciiPlot({toSeries(sine, "pure sine", 's'),
                                          toSeries(two, "two-tone FSK", '2'),
                                          toSeries(multi, "multi-tone FSK", 'm')})
                        .c_str());

  // Differential gate against the analytical oracle: the multi-tone curve
  // (the BIST's production stimulus) must sit inside the documented band
  // tolerances of the golden capacitor-node magnitude. The two-tone curve
  // is reported but not gated — the paper itself shows it deviating.
  benchutil::printSubHeader("golden-model differential gate");
  const golden::GoldenModel model(cfg);
  const double fn = model.naturalFrequencyHz();
  const golden::ToleranceBands bands = golden::ToleranceBands::defaults();
  double max_delta = 0.0, max_two = 0.0;
  bool pass = true;
  int gated = 0;
  for (const auto& p : multi.points()) {
    const double f = radPerSecToHz(p.omega_rad_per_s);
    const golden::ToleranceBand* band = bands.bandFor(f / fn);
    if (band == nullptr) continue;  // counter-resolution floor: excluded
    const double delta = p.magnitude_db - model.magnitudeDb(f);
    max_delta = std::max(max_delta, std::abs(delta));
    ++gated;
    if (std::abs(delta) > band->magnitude_db) {
      std::printf("  VIOLATION at %.2f Hz (%s): |%.2f| dB > %.2f dB\n", f, band->label, delta,
                  band->magnitude_db);
      pass = false;
    }
  }
  for (const auto& p : two.points()) {
    const double f = radPerSecToHz(p.omega_rad_per_s);
    if (bands.bandFor(f / fn) == nullptr) continue;
    max_two = std::max(max_two, std::abs(p.magnitude_db - model.magnitudeDb(f)));
  }
  std::printf("multi-tone vs oracle: max |delta| = %.2f dB over %d banded points\n", max_delta,
              gated);
  std::printf("two-tone  vs oracle: max |delta| = %.2f dB (reported, not gated)\n", max_two);
  if (!pass || gated == 0) {
    std::fprintf(stderr, "fig11: FAIL - measured magnitude outside the golden tolerance bands\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
