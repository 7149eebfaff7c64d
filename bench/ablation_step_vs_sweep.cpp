// Ablation D: transfer-function sweep vs single-transient step test.
// The same peak-detect/hold/count hardware supports both the paper's
// frequency sweep and the companion step-response test (reference [12]'s
// "ramp based" direction). This bench compares extraction accuracy and
// test time across a range of designed dampings, on the fast-scaled
// device (the trade-off is scale-free).

#include <cstdio>

#include "bist/analysis.hpp"
#include "bist/resilient_sweep.hpp"
#include "bist/step_test.hpp"
#include "common/units.hpp"
#include "pll/config.hpp"
#include "support/bench_util.hpp"

int main() {
  using namespace pllbist;
  benchutil::printHeader("Ablation D - sweep-based vs step-based loop characterisation");

  std::printf("\n%6s | %9s %9s %10s | %9s %9s %10s\n", "zeta", "swp zeta", "swp fn",
              "swp time*", "step zeta", "step fn", "step time*");
  std::printf("%6s | %32s | %32s\n", "", "(12-point transfer-function sweep)",
              "(single reference step)");

  for (double zeta : {0.35, 0.43, 0.55, 0.65}) {
    const pll::PllConfig cfg = pll::scaledTestConfig(200.0, zeta);

    // Sweep method.
    bist::SweepOptions sopt = bist::quickSweepOptions(cfg, bist::StimulusKind::MultiToneFsk, 12);
    const bist::MeasuredResponse sweep =
        bist::ResilientSweep(cfg, sopt, {.max_attempts = 1}).run().response;
    const bist::ExtractedParameters sp = bist::extractParameters(sweep.toBode());
    // Simulated test time: lock + static ref + per-point (settle+avg+gate).
    double sweep_time = sopt.lock_wait_s + sopt.static_settle_s + sopt.sequencer.freq_gate_s;
    for (double fm : sopt.modulation_frequencies_hz)
      sweep_time += (sopt.sequencer.settle_periods + sopt.sequencer.average_periods + 1) / fm +
                    sopt.sequencer.freq_gate_s;

    // Step method.
    bist::StepTestOptions topt;
    topt.lock_wait_s = 10.0 / 200.0;
    topt.freq_gate_s = 10.0 / 200.0;
    topt.hold_to_gate_delay_s = 2e-4;
    const bist::StepTestResult st = bist::runStepTest(cfg, topt);
    const double step_time = topt.lock_wait_s + 2.0 * topt.freq_gate_s + st.peak_time_s +
                             st.relock_time_s + topt.freq_gate_s;

    std::printf("%6.2f | %9.3f %9.1f %9.2fs | %9.3f %9.1f %9.2fs\n", zeta,
                sp.zeta.value_or(0.0), sp.natural_frequency_hz.value_or(0.0), sweep_time,
                st.zeta.value_or(0.0), st.natural_frequency_hz.value_or(0.0), step_time);
  }
  std::printf("\n* simulated on-chip test time, not CPU time\n");
  std::printf(
      "\nExpectation: the sweep wins on accuracy (it averages many periods and\n"
      "reconstructs the whole curve); the step test is an order of magnitude faster\n"
      "and needs no DCO frequency set, at the cost of a low-biased zeta (the sampled\n"
      "PFD adds overshoot) and sensitivity to a single transient. Both use identical\n"
      "capture hardware, so a production flow can run the step test as a fast screen\n"
      "and the sweep as the characterisation/diagnosis mode.\n");
  return 0;
}
