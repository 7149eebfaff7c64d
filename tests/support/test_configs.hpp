#pragma once

#include "bist/sweep_types.hpp"
#include "pll/config.hpp"

namespace pllbist::testing {

/// Fast-simulating PLL for tests: fref = 10 kHz, N = 10, fn = 200 Hz,
/// zeta = 0.43 (see pll::scaledTestConfig).
inline pll::PllConfig fastTestConfig(double fn_hz = 200.0, double zeta = 0.43) {
  return pll::scaledTestConfig(fn_hz, zeta);
}

/// Sweep options sized for fastTestConfig (short gates, few points).
inline bist::SweepOptions fastSweepOptions(bist::StimulusKind stimulus, int points = 8,
                                           double fn_hz = 200.0) {
  return bist::quickSweepOptions(fastTestConfig(fn_hz), stimulus, points);
}

}  // namespace pllbist::testing
