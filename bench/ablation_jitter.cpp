// Ablation F: measurement robustness against reference-clock edge jitter.
// The phase counter latches single edges, so jitter attacks it directly;
// per-period captures are averaged (circular mean), which is the BIST's
// only defence. Sweeps the injected Gaussian edge jitter and reports the
// measured point at fn against the clean measurement.

#include <cmath>
#include <cstdio>

#include "bist/peak_detector.hpp"
#include "bist/sequencer.hpp"
#include "pll/config.hpp"
#include "pll/cppll.hpp"
#include "pll/sources.hpp"
#include "support/bench_util.hpp"

namespace {

using namespace pllbist;

bist::TestSequencer::PointResult measure(double jitter_rms_s, unsigned seed, int averages) {
  const pll::PllConfig cfg = pll::scaledTestConfig();
  sim::Circuit c;
  const auto stim = c.addSignal("stim");
  const auto marker = c.addSignal("marker");
  pll::SineFmSource::Config scfg;
  scfg.nominal_hz = cfg.ref_frequency_hz;
  scfg.edge_jitter_rms_s = jitter_rms_s;
  scfg.jitter_seed = seed;
  pll::SineFmSource src(c, stim, marker, scfg, sim::SourceMode::Pulled);
  pll::CpPll pll(c, src, cfg);
  pll.setTestMode(true);
  bist::PeakDetector det(c, pll);
  bist::TestSequencer::Options opt;
  opt.freq_gate_s = 0.05;
  opt.hold_to_gate_delay_s = 2e-4;
  opt.average_periods = averages;
  bist::TestSequencer seq(c, pll,
                          bist::StimulusHooks{[&](double fm) { src.setModulation(fm, 100.0); },
                                              [&] { src.setModulation(0.0, 0.0); },
                                              [&] {
                                                src.setModulation(0.0, 0.0);
                                                src.setCarrier(cfg.ref_frequency_hz + 100.0);
                                              }},
                          det, marker, 10e6, opt);
  c.run(0.05);
  bool done = false;
  bist::TestSequencer::PointResult result;
  seq.measurePoint(200.0, [&](bist::TestSequencer::PointResult r) {
    result = std::move(r);
    done = true;
  });
  while (!done) c.step();
  return result;
}

}  // namespace

int main() {
  benchutil::printHeader("Ablation F - reference edge jitter vs BIST point accuracy (fm = fn)");

  const auto clean = measure(0.0, 1, 4);
  std::printf("\nclean measurement at fn: phase %.2f deg, held deviation %.1f Hz\n",
              clean.phase_deg, clean.held_frequency_hz - 100e3);

  std::printf("\n%14s | %16s %16s | %16s\n", "jitter RMS", "phase err (4 avg)",
              "phase err (16 avg)", "dev err (16 avg)");
  for (double ppm_of_period : {0.0005, 0.002, 0.005, 0.01, 0.02}) {
    const double rms = ppm_of_period / 10e3;  // fraction of Tref at fref = 10 kHz
    // Average the absolute error over a few seeds.
    double e4 = 0.0, e16 = 0.0, ed = 0.0;
    const int seeds = 3;
    for (unsigned s = 1; s <= seeds; ++s) {
      const auto r4 = measure(rms, s, 4);
      const auto r16 = measure(rms, s + 100, 16);
      e4 += std::abs(r4.phase_deg - clean.phase_deg);
      e16 += std::abs(r16.phase_deg - clean.phase_deg);
      ed += std::abs(r16.held_frequency_hz - clean.held_frequency_hz);
    }
    std::printf("%9.2f%% Tref | %12.2f deg %12.2f deg | %13.1f Hz\n",
                ppm_of_period * 100.0, e4 / seeds, e16 / seeds, ed / seeds);
  }
  std::printf(
      "\nExpectation: both captures degrade gracefully — errors stay below a few\n"
      "degrees / <10%% of the deviation even at 2%% Tref RMS jitter. The residual is\n"
      "dominated by where the jittered edges land around the phase-error zero\n"
      "crossing (systematic per tone), so extra averaging helps only modestly; the\n"
      "held-frequency count is inherently robust because it integrates over the\n"
      "whole gate.\n");
  return 0;
}
