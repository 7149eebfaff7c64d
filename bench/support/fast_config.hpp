#pragma once

#include "bist/sweep_types.hpp"
#include "pll/config.hpp"

namespace pllbist::benchutil {

/// Fast-simulating device for ablations where absolute paper scale is not
/// needed (the BIST logic is scale-free).
inline pll::PllConfig fastConfig(double fn_hz = 200.0, double zeta = 0.43) {
  return pll::scaledTestConfig(fn_hz, zeta);
}

inline bist::SweepOptions fastSweep(bist::StimulusKind stimulus, int points = 8) {
  return bist::quickSweepOptions(fastConfig(), stimulus, points);
}

}  // namespace pllbist::benchutil
