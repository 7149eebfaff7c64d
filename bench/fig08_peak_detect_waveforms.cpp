// Figure 8: transient waveforms of the output-frequency peak detector.
// The reference PLL is driven with sinusoidal FM; the loop-filter node,
// the monitor-PFD UP/DN activity and the MFREQ (peak-detect) output are
// recorded. MFREQ's falling edges must land on the crests of the filter
// voltage — the frequency maxima. Also writes fig08_waveforms.csv.

#include <cstdio>
#include <fstream>

#include "bist/peak_detector.hpp"
#include "pll/config.hpp"
#include "pll/cppll.hpp"
#include "pll/probes.hpp"
#include "pll/sources.hpp"
#include "sim/trace.hpp"
#include "support/bench_util.hpp"

int main() {
  using namespace pllbist;
  benchutil::printHeader("Figure 8 - peak detector transient waveforms");

  const pll::PllConfig cfg = pll::referenceConfig();
  sim::Circuit c;
  const auto stim = c.addSignal("stim");
  const auto marker = c.addSignal("marker");
  pll::SineFmSource::Config scfg;
  scfg.nominal_hz = cfg.ref_frequency_hz;
  pll::SineFmSource src(c, stim, marker, scfg, sim::SourceMode::Pulled);
  pll::CpPll pll(c, src, cfg);
  pll.setTestMode(true);
  bist::PeakDetector det(c, pll);
  // The monitor PFD writes UP/DN only while they are observed, so the
  // recorders watch from the start and are cleared when the capture begins.
  sim::EdgeRecorder up(c, det.monitorUp());
  sim::EdgeRecorder dn(c, det.monitorDn());
  sim::EdgeRecorder mfreq(c, det.mfreq());

  c.run(1.0);  // lock
  const double fm = 8.0;
  src.setModulation(fm, 10.0);
  c.run(c.now() + 4.0 / fm);  // settle into sinusoidal steady state

  // Record two modulation periods.
  sim::Trace vcap("vcap");
  pll::AnalogProbe probe(c, [&] { return pll.filter().capVoltage(c.now()); }, vcap, 2.5e-4,
                         c.now());
  for (sim::EdgeRecorder* rec : {&up, &dn, &mfreq}) rec->clear();
  const double t0 = c.now();
  c.run(t0 + 2.0 / fm);
  probe.stop();

  benchutil::printSubHeader("loop-filter capacitor voltage with MFREQ peak marks");
  benchutil::Series vc_series{"vcap (V)", '*', {}, {}};
  for (size_t i = 0; i < vcap.size(); ++i) {
    vc_series.x.push_back(vcap.times()[i] - t0);
    vc_series.y.push_back(vcap.values()[i]);
  }
  benchutil::Series peaks{"MFREQ fall = max-frequency event", 'V', {}, {}};
  for (double t : mfreq.fallingEdges()) {
    peaks.x.push_back(t - t0);
    peaks.y.push_back(vcap.at(t));
  }
  benchutil::Series valleys{"MFREQ rise = min-frequency event", 'A', {}, {}};
  for (double t : mfreq.risingEdges()) {
    valleys.x.push_back(t - t0);
    valleys.y.push_back(vcap.at(t));
  }
  std::printf("%s", benchutil::asciiPlot({vc_series, peaks, valleys}, 96, 20, false).c_str());

  benchutil::printSubHeader("pulse statistics over the captured window");
  auto widthStats = [](const sim::EdgeRecorder& rec, const char* name) {
    const size_t n = std::min(rec.risingEdges().size(), rec.fallingEdges().size());
    size_t wide = 0, glitch = 0;
    double widest = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double rise = rec.risingEdges()[i];
      double fall = rec.fallingEdges()[i];
      if (fall < rise && i + 1 < rec.fallingEdges().size()) fall = rec.fallingEdges()[i + 1];
      const double w = fall - rise;
      if (w > 1e-7)
        ++wide;
      else
        ++glitch;
      widest = std::max(widest, w);
    }
    std::printf("%-10s %5zu pulses, %5zu dead-zone glitches, widest %.2f us\n", name, wide,
                glitch, widest * 1e6);
  };
  widthStats(up, "PFD UP");
  widthStats(dn, "PFD DN");
  std::printf("MFREQ transitions: %zu max-frequency marks, %zu min-frequency marks in %.2f s\n",
              mfreq.fallingEdges().size(), mfreq.risingEdges().size(), 2.0 / fm);
  std::printf("(expected: one of each per %.3f s modulation period)\n", 1.0 / fm);

  // CSV dump for external plotting.
  {
    std::ofstream csv("fig08_waveforms.csv");
    std::vector<const sim::Trace*> traces{&vcap};
    sim::writeTracesCsv(csv, traces);
    std::printf("\nwrote fig08_waveforms.csv (%zu samples)\n", vcap.size());
  }
  return 0;
}
