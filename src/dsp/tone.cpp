#include "dsp/tone.hpp"

#include <cmath>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/units.hpp"

namespace pllbist::dsp {

namespace {

/// Solve a symmetric 3x3 linear system via Gaussian elimination with partial
/// pivoting. Throws std::domain_error on singular systems.
void solve3x3(double m[3][3], double rhs[3], double out[3]) {
  int perm[3] = {0, 1, 2};
  for (int col = 0; col < 3; ++col) {
    int pivot = col;
    for (int r = col + 1; r < 3; ++r)
      if (std::abs(m[perm[r]][col]) > std::abs(m[perm[pivot]][col])) pivot = r;
    std::swap(perm[col], perm[pivot]);
    const double p = m[perm[col]][col];
    if (p == 0.0) throw std::domain_error("solve3x3: singular system");
    for (int r = col + 1; r < 3; ++r) {
      const double f = m[perm[r]][col] / p;
      for (int c = col; c < 3; ++c) m[perm[r]][c] -= f * m[perm[col]][c];
      rhs[perm[r]] -= f * rhs[perm[col]];
    }
  }
  for (int col = 2; col >= 0; --col) {
    double acc = rhs[perm[col]];
    for (int c = col + 1; c < 3; ++c) acc -= m[perm[col]][c] * out[c];
    out[col] = acc / m[perm[col]][col];
  }
}

}  // namespace

ToneFit fitSine(const std::vector<double>& times, const std::vector<double>& values,
                double frequency_hz) {
  if (times.size() != values.size())
    throw std::invalid_argument("fitSine: times/values size mismatch");
  if (times.size() < 3) throw std::invalid_argument("fitSine: need at least 3 samples");
  if (frequency_hz <= 0.0) throw std::invalid_argument("fitSine: frequency must be positive");

  // Least squares for x(t) = a*sin(wt) + b*cos(wt) + c.
  const double w = kTwoPi * frequency_hz;
  double m[3][3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}};
  double rhs[3] = {0, 0, 0};
  for (size_t i = 0; i < times.size(); ++i) {
    const double s = std::sin(w * times[i]);
    const double co = std::cos(w * times[i]);
    const double basis[3] = {s, co, 1.0};
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 3; ++c) m[r][c] += basis[r] * basis[c];
      rhs[r] += basis[r] * values[i];
    }
  }
  double abc[3];
  solve3x3(m, rhs, abc);

  ToneFit fit;
  fit.amplitude = std::hypot(abc[0], abc[1]);
  fit.phase_rad = std::atan2(abc[1], abc[0]);  // a*sin + b*cos = A*sin(wt + phi)
  fit.offset = abc[2];

  double ss = 0.0;
  for (size_t i = 0; i < times.size(); ++i) {
    const double model =
        abc[0] * std::sin(w * times[i]) + abc[1] * std::cos(w * times[i]) + abc[2];
    const double e = values[i] - model;
    ss += e * e;
  }
  fit.residual_rms = std::sqrt(ss / static_cast<double>(times.size()));
  return fit;
}

ToneFit fitSineUniform(const std::vector<double>& values, double sample_rate_hz,
                       double frequency_hz) {
  if (sample_rate_hz <= 0.0) throw std::invalid_argument("fitSineUniform: bad sample rate");
  std::vector<double> times(values.size());
  for (size_t i = 0; i < values.size(); ++i) times[i] = static_cast<double>(i) / sample_rate_hz;
  return fitSine(times, values, frequency_hz);
}

}  // namespace pllbist::dsp
