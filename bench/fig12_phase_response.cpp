// Figure 12: measured phase response of the reference PLL via the on-chip
// BIST for the three stimulus kinds, with theory columns. The paper's
// anchor is ~-46 deg at fn = 8 Hz for the eqn (4) response; the physical
// peak-detect capture measures the capacitor-node response whose phase at
// fn is -90 deg (see EXPERIMENTS.md for the systematic-difference note).

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
  benchutil::printHeader("Figure 12 - measured phase response (BIST)");

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
      benchutil::printBodeCell(r->pointAt(w), &control::BodePoint::phase_deg, 10, 1);
    std::printf(" | %9.1f %9.1f\n", cap.phaseDegAt(w), eqn4.phaseDegAt(w));
  }

  benchutil::printSubHeader("anchors");
  const double w_fn = hzToRadPerSec(8.0);
  std::printf("phase at fn = 8 Hz: pure sine %.1f deg, multi-tone %.1f deg\n",
              sine.phaseDegAt(w_fn), multi.phaseDegAt(w_fn));
  std::printf("theory at fn:       capacitor node %.1f deg, eqn (4) %.1f deg\n",
              cap.phaseDegAt(w_fn), eqn4.phaseDegAt(w_fn));
  std::printf("(the paper plots -46 deg at fn, i.e. the eqn (4) curve; the physical\n"
              " hold-at-PFD-reversal capture tracks the capacitor-node curve)\n");

  for (double fmax : {16.0, 1e9}) {
    double rms_multi = 0.0, rms_two = 0.0;
    int n = 0;
    for (const control::BodePoint& sp : sine.points()) {
      if (radPerSecToHz(sp.omega_rad_per_s) > fmax) break;
      const control::BodePoint* m = multi.pointAt(sp.omega_rad_per_s);
      const control::BodePoint* t = two.pointAt(sp.omega_rad_per_s);
      if (m == nullptr || t == nullptr) continue;
      const double s = sp.phase_deg;
      rms_multi += (m->phase_deg - s) * (m->phase_deg - s);
      rms_two += (t->phase_deg - s) * (t->phase_deg - s);
      ++n;
    }
    std::printf("RMS deviation from pure sine (%s): multi-tone %.1f deg, two-tone %.1f deg\n",
                fmax < 1e8 ? "fm <= 2*fn" : "full sweep", std::sqrt(rms_multi / n),
                std::sqrt(rms_two / n));
  }

  benchutil::printSubHeader("phase plot (deg)");
  auto toSeries = [](const control::BodeResponse& r, const char* label, char sym) {
    benchutil::Series s{label, sym, {}, {}};
    for (const auto& p : r.points()) {
      s.x.push_back(radPerSecToHz(p.omega_rad_per_s));
      s.y.push_back(p.phase_deg);
    }
    return s;
  };
  std::printf("%s", benchutil::asciiPlot({toSeries(sine, "pure sine", 's'),
                                          toSeries(two, "two-tone FSK", '2'),
                                          toSeries(multi, "multi-tone FSK", 'm')})
                        .c_str());

  // Differential gate against the analytical oracle: multi-tone phase vs
  // the golden capacitor-node curve, after removing the ~1-Tref transport
  // delay of the sampled BIST path (see DESIGN.md section 9). Two-tone is
  // reported but not gated.
  benchutil::printSubHeader("golden-model differential gate");
  const golden::GoldenModel model(cfg);
  const double fn = model.naturalFrequencyHz();
  const golden::ToleranceBands bands = golden::ToleranceBands::defaults();
  const double delay_tref = 1.0;  // same correction the differential suite applies
  // The figures reproduce the paper's ten-step FSK stimulus; the golden
  // differential suite runs 20 steps precisely because 10 leaves a few
  // degrees of staircase distortion in the extracted phase. Widen each
  // band by that documented stimulus penalty instead of hiding it.
  const double coarse_stimulus_slack_deg = 5.0;
  auto delta_of = [&](const control::BodePoint& p) {
    const double f = radPerSecToHz(p.omega_rad_per_s);
    double d = p.phase_deg - model.phaseDeg(f) + 360.0 * f * delay_tref / cfg.ref_frequency_hz;
    while (d <= -180.0) d += 360.0;
    while (d > 180.0) d -= 360.0;
    return d;
  };
  double max_delta = 0.0, max_two = 0.0;
  bool pass = true;
  int gated = 0;
  for (const auto& p : multi.points()) {
    const double f = radPerSecToHz(p.omega_rad_per_s);
    const golden::ToleranceBand* band = bands.bandFor(f / fn);
    if (band == nullptr) continue;  // counter-resolution floor: excluded
    const double delta = delta_of(p);
    const double tol = band->phase_deg + coarse_stimulus_slack_deg;
    max_delta = std::max(max_delta, std::abs(delta));
    ++gated;
    if (std::abs(delta) > tol) {
      std::printf("  VIOLATION at %.2f Hz (%s): |%.1f| deg > %.1f deg\n", f, band->label, delta,
                  tol);
      pass = false;
    }
  }
  for (const auto& p : two.points()) {
    const double f = radPerSecToHz(p.omega_rad_per_s);
    if (bands.bandFor(f / fn) == nullptr) continue;
    max_two = std::max(max_two, std::abs(delta_of(p)));
  }
  std::printf("multi-tone vs oracle: max |delta| = %.1f deg over %d banded points "
              "(delay-corrected, %.1f Tref)\n",
              max_delta, gated, delay_tref);
  std::printf("two-tone  vs oracle: max |delta| = %.1f deg (reported, not gated)\n", max_two);
  if (!pass || gated == 0) {
    std::fprintf(stderr, "fig12: FAIL - measured phase outside the golden tolerance bands\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
