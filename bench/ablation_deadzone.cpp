// Ablation B: dead-zone glitch width vs peak-detector integrity. The
// sampling latch in the Figure 7 circuit is clocked from the PFD dead-zone
// glitches; section 4.2 notes the glitches can be widened with delay
// elements if clocking from them is marginal. Here the PFD delays are
// scaled over two orders of magnitude and a single-point BIST measurement
// at fn is taken each time.

#include <cstdio>

#include "bist/resilient_sweep.hpp"
#include "common/units.hpp"
#include "pll/config.hpp"
#include "pll/faults.hpp"
#include "support/bench_util.hpp"

int main() {
  using namespace pllbist;
  benchutil::printHeader("Ablation B - PFD delay (dead-zone glitch width) scaling");

  const pll::PllConfig golden = pll::referenceConfig();
  bist::SweepOptions opt;
  opt.stimulus = bist::StimulusKind::MultiToneFsk;
  opt.deviation_hz = 10.0;
  opt.master_clock_hz = 1e6;
  opt.modulation_frequencies_hz = {4.0, 8.0, 16.0};

  std::printf("\n%10s %14s | %12s %12s %10s\n", "delay x", "glitch width", "dev@8Hz (Hz)",
              "phase@8Hz", "timeouts");
  for (double scale : {0.25, 1.0, 4.0, 16.0, 64.0, 256.0}) {
    const pll::PllConfig cfg =
        pll::applyFault(golden, {pll::FaultSpec::Kind::PfdDeadZone, scale});
    const bist::MeasuredResponse r =
        bist::ResilientSweep(cfg, opt, {.max_attempts = 1}).run().response;
    int timeouts = 0;
    for (const auto& p : r.points) timeouts += p.timed_out ? 1 : 0;
    const auto& mid = r.points[1];  // fm = 8 Hz
    std::printf("%10.2f %11.1f ns | %12.1f %11.1f deg %9d\n", scale,
                cfg.pfd.glitchWidth() * 1e9, mid.deviation_hz, mid.phase_deg, timeouts);
  }

  std::printf(
      "\nExpectation: the measurement is insensitive over a wide range (the sampling\n"
      "latch's inverter-delay trick keeps the sample clean), degrading only when the\n"
      "glitch width becomes comparable to the phase errors being resolved — the\n"
      "dead-zone fault then also injects real pump disturbance each cycle.\n");
  return 0;
}
