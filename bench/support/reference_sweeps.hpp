#pragma once

#include <cstdio>
#include <vector>

#include "bist/resilient_sweep.hpp"
#include "pll/config.hpp"

namespace pllbist::benchutil {

struct SweepSet {
  bist::MeasuredResponse pure_sine;
  bist::MeasuredResponse two_tone;
  bist::MeasuredResponse multi_tone;
  std::vector<double> frequencies_hz;
};

/// Run the Figures 11/12 measurement campaign on the reference PLL: the
/// same log sweep with pure sinusoidal FM, two-tone FSK, and ten-step
/// multi-tone FSK (Table 3 stimulus parameters).
inline SweepSet runReferenceSweeps(int points = 13) {
  const pll::PllConfig cfg = pll::referenceConfig();
  const pll::ReferenceStimulus stim = pll::referenceStimulus();

  bist::SweepOptions base;
  base.fm_steps = stim.fm_steps;
  base.deviation_hz = stim.max_deviation_hz;
  base.master_clock_hz = stim.master_clock_hz;
  base.modulation_frequencies_hz = bist::SweepOptions::defaultSweep(8.0, points);

  SweepSet out;
  out.frequencies_hz = base.modulation_frequencies_hz;
  for (auto kind : {bist::StimulusKind::PureSineFm, bist::StimulusKind::TwoToneFsk,
                    bist::StimulusKind::MultiToneFsk}) {
    bist::SweepOptions opt = base;
    opt.stimulus = kind;
    std::printf("running %s sweep (%d points)...\n", to_string(kind), points);
    std::fflush(stdout);
    bist::MeasuredResponse r = bist::ResilientSweep(cfg, opt, {.max_attempts = 1}).run().response;
    switch (kind) {
      case bist::StimulusKind::PureSineFm: out.pure_sine = std::move(r); break;
      case bist::StimulusKind::TwoToneFsk: out.two_tone = std::move(r); break;
      case bist::StimulusKind::MultiToneFsk: out.multi_tone = std::move(r); break;
      case bist::StimulusKind::DelayLinePm: break;  // not part of Figs 11/12
    }
  }
  return out;
}

}  // namespace pllbist::benchutil
