#pragma once

#include <cstddef>
#include <vector>

namespace pllbist::dsp {

/// Linear interpolation at a single point; clamps to the end values outside
/// the span. Times must be ascending and non-empty.
double interpolateAt(const std::vector<double>& times, const std::vector<double>& values,
                     double t);

/// Instantaneous-frequency estimate from rising-edge timestamps: for each
/// consecutive pair, emits (midpoint time, 1/period). Fewer than 2 edges
/// yields an empty result.
struct TimedValue {
  double time_s = 0.0;
  double value = 0.0;
};
std::vector<TimedValue> frequencyFromEdges(const std::vector<double>& edge_times_s);

}  // namespace pllbist::dsp
