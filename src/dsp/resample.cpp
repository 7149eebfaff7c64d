#include "dsp/resample.hpp"

#include <algorithm>
#include <stdexcept>

namespace pllbist::dsp {

double interpolateAt(const std::vector<double>& times, const std::vector<double>& values,
                     double t) {
  if (times.empty() || times.size() != values.size())
    throw std::invalid_argument("interpolateAt: bad inputs");
  if (t <= times.front()) return values.front();
  if (t >= times.back()) return values.back();
  const auto it = std::lower_bound(times.begin(), times.end(), t);
  const size_t hi = static_cast<size_t>(it - times.begin());
  const size_t lo = hi - 1;
  const double span = times[hi] - times[lo];
  if (span <= 0.0) throw std::invalid_argument("interpolateAt: times must be strictly ascending");
  const double f = (t - times[lo]) / span;
  return values[lo] + f * (values[hi] - values[lo]);
}

std::vector<TimedValue> frequencyFromEdges(const std::vector<double>& edges) {
  std::vector<TimedValue> out;
  if (edges.size() < 2) return out;
  out.reserve(edges.size() - 1);
  for (size_t i = 1; i < edges.size(); ++i) {
    const double period = edges[i] - edges[i - 1];
    if (period <= 0.0) throw std::invalid_argument("frequencyFromEdges: edges must be ascending");
    out.push_back({0.5 * (edges[i] + edges[i - 1]), 1.0 / period});
  }
  return out;
}

}  // namespace pllbist::dsp
