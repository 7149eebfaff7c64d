// Table 2: the basic test sequence. Runs one complete single-frequency
// measurement on the reference PLL and prints the observed stage timeline
// against the paper's stage/mux description, plus the captured results.

#include <cstdio>
#include <vector>

#include "bist/dco.hpp"
#include "bist/modulator.hpp"
#include "bist/peak_detector.hpp"
#include "bist/sequencer.hpp"
#include "pll/config.hpp"
#include "pll/cppll.hpp"
#include "support/bench_util.hpp"

namespace {

const char* stageName(pllbist::bist::TestSequencer::Stage s) {
  using Stage = pllbist::bist::TestSequencer::Stage;
  switch (s) {
    case Stage::Idle: return "idle";
    case Stage::Settle: return "1: apply modulation, settle";
    case Stage::PhaseMeasure: return "2: phase-count stim->output peaks";
    case Stage::AwaitPeakForHold: return "3: await peak, assert hold";
    case Stage::HoldCount: return "4: count held output frequency";
  }
  return "?";
}

}  // namespace

int main() {
  using namespace pllbist;
  benchutil::printHeader("Table 2 - basic test sequence (observed on the reference PLL)");

  std::printf("\nPaper stages and mux states:\n");
  std::printf("  (1) M1: A=C B=D   apply digital modulation at FN, loop closed\n");
  std::printf("  (2) M1: A=C B=D   start phase counter at stimulus peak, monitor MFREQ\n");
  std::printf("  (3) M2: A=C A=D   peak occurred -> hold loop, stop phase counter\n");
  std::printf("  (4) M2: A=C A=D   count held output frequency and store\n");
  std::printf("  (5)               next modulation frequency, repeat\n");

  const pll::PllConfig cfg = pll::referenceConfig();
  sim::Circuit c;
  const auto stim = c.addSignal("stim");
  const auto marker = c.addSignal("marker");
  bist::Dco dco(c, stim, bist::Dco::Config{1e6, 1000, 0.0});
  bist::FskModulator::Config mcfg;
  mcfg.steps = 10;
  mcfg.nominal_hz = cfg.ref_frequency_hz;
  mcfg.deviation_hz = 10.0;
  bist::FskModulator modulator(c, dco, marker, mcfg);
  pll::CpPll pll(c, dco, cfg);
  pll.setTestMode(true);
  bist::PeakDetector detector(c, pll);
  bist::TestSequencer::Options opt;
  opt.freq_gate_s = 1.0;
  bist::TestSequencer sequencer(c, pll, modulator, detector, 1e6, opt);

  c.run(1.0);  // lock

  // Poll the sequencer stage and record transitions.
  struct Transition {
    double t;
    bist::TestSequencer::Stage stage;
  };
  std::vector<Transition> timeline;
  auto poll = [&](auto&& self, double t) -> void {
    if (timeline.empty() || timeline.back().stage != sequencer.stage())
      timeline.push_back({t, sequencer.stage()});
    c.scheduleCallback(t + 2e-3, [&, self](double now) { self(self, now); });
  };
  c.scheduleCallback(c.now(), [&](double now) { poll(poll, now); });

  const double fm = 8.0;  // at the natural frequency
  bool done = false;
  bist::TestSequencer::PointResult result;
  sequencer.measurePoint(fm, [&](bist::TestSequencer::PointResult r) {
    result = std::move(r);
    done = true;
  });
  while (!done) c.step();

  benchutil::printSubHeader("observed stage timeline (FN = 8 Hz)");
  std::printf("%12s  %s\n", "t (s)", "stage");
  for (const Transition& tr : timeline) std::printf("%12.4f  %s\n", tr.t, stageName(tr.stage));

  benchutil::printSubHeader("captured measurements");
  std::printf("phase counter captures (1 MHz test clock): ");
  for (long n : result.phase_counts) std::printf("%ld ", n);
  std::printf("\nphase via eqn (8), circular mean:          %.2f deg\n", result.phase_deg);
  std::printf("hold engaged at:                           t = %.4f s\n", result.hold_time_s);
  std::printf("held output frequency (gate %.2f s):       %.2f Hz (count %ld)\n", result.gate_s,
              result.held_frequency_hz, result.held_count);
  std::printf("deviation from 50 kHz nominal:             %+.2f Hz\n",
              result.held_frequency_hz - cfg.nominalVcoHz());
  std::printf("timed out: %s\n", result.timed_out ? "YES" : "no");
  return 0;
}
