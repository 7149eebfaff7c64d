#pragma once

#include <cstddef>
#include <vector>

namespace pllbist::dsp {

/// Amplitude/phase/offset of a fitted sinusoid
/// x(t) = offset + amplitude * sin(2*pi*f*t + phase_rad).
struct ToneFit {
  double amplitude = 0.0;
  double phase_rad = 0.0;  // in (-pi, pi]
  double offset = 0.0;
  double residual_rms = 0.0;  // RMS of (data - model)
};

/// Three-parameter least-squares sine fit at a *known* frequency to
/// (time, value) samples (need not be uniform). This is the IEEE-1057-style
/// fit used by the conventional bench measurement baseline to extract the
/// loop-filter-node response amplitude and phase.
/// Throws std::invalid_argument on fewer than 3 samples or f <= 0.
ToneFit fitSine(const std::vector<double>& times_s, const std::vector<double>& values,
                double frequency_hz);

/// Convenience overload for uniformly sampled values starting at t = 0.
ToneFit fitSineUniform(const std::vector<double>& values, double sample_rate_hz,
                       double frequency_hz);

}  // namespace pllbist::dsp
