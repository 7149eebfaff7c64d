#include "pll/vco.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/assert.hpp"

namespace pllbist::pll {

void VcoConfig::validate() const {
  if (center_frequency_hz <= 0.0) throw std::invalid_argument("VcoConfig: center frequency must be positive");
  if (gain_hz_per_v <= 0.0) throw std::invalid_argument("VcoConfig: gain must be positive");
  if (min_frequency_hz <= 0.0) throw std::invalid_argument("VcoConfig: min frequency must be positive");
  const double fmax = max_frequency_hz > 0.0 ? max_frequency_hz : 2.0 * center_frequency_hz;
  if (fmax <= min_frequency_hz) throw std::invalid_argument("VcoConfig: max frequency must exceed min");
}

double VcoConfig::frequencyAt(double control_v) const {
  const double fmax = max_frequency_hz > 0.0 ? max_frequency_hz : 2.0 * center_frequency_hz;
  const double f = center_frequency_hz + gain_hz_per_v * (control_v - v_center_v);
  return std::clamp(f, min_frequency_hz, fmax);
}

Vco::Vco(const VcoConfig& cfg, int divider_n, double start_time_s)
    : cfg_(cfg), divider_n_(static_cast<uint64_t>(divider_n)), aim_time_(start_time_s) {
  cfg_.validate();
  if (divider_n < 1) throw std::invalid_argument("Vco: divider needs n >= 1");
}

Vco::Edge Vco::fire(double now, PumpFilter& filter, bool observed) {
  if (!started_) {
    started_ = true;
    last_t_ = now;
    frequency_hz_ = cfg_.frequencyAt(filter.controlVoltage(now));
    return edge(0, now, filter, observed);  // phase 0: first rising edge
  }
  integrateTo(now);
  return edge(aim_half_, now, filter, observed);
}

void Vco::driveChanged(double now, PumpFilter& filter, bool observed) {
  if (!started_) return;
  integrateTo(now);
  retarget(now, true, filter, observed);
}

void Vco::integrateTo(double t) {
  PLLBIST_ASSERT(t >= last_t_);
  phase_cycles_ += frequency_hz_ * (t - last_t_);
  last_t_ = t;
  next_half_ = passedHalves(t);
}

Vco::Edge Vco::edge(uint64_t half, double now, PumpFilter& filter, bool observed) {
  const bool rising = half % 2 == 0;
  next_half_ = half + 1;
  // A frozen filter would hand back the voltage already sampled.
  retarget(now, !filter.frozen(), filter, observed);
  if (divider_n_ == 1) return {rising, true, rising};
  if (!rising) return {rising, false, false};
  const uint64_t count = (half / 2) % divider_n_;
  if (count == 0) return {rising, true, true};
  if (count == divider_n_ / 2) return {rising, true, false};
  return {rising, false, false};
}

void Vco::retarget(double now, bool resample, PumpFilter& filter, bool observed) {
  // Aim the next stop using the (possibly just re-sampled) frequency.
  if (resample) frequency_hz_ = cfg_.frequencyAt(filter.controlVoltage(now));
  aim_half_ = nextAim(filter, observed);
  const double remaining_cycles = 0.5 * static_cast<double>(aim_half_) - phase_cycles_;
  const double wait = std::max(remaining_cycles, 0.0) / frequency_hz_;
  aim_time_ = now + wait;
}

uint64_t Vco::nextAim(const PumpFilter& filter, bool observed) const {
  if (!filter.frozen() || observed || divider_n_ == 1) return next_half_;
  // The next rising edge r with r mod n in {0, n/2}.
  const uint64_t n = divider_n_;
  const uint64_t half_n = n / 2;
  uint64_t r = (next_half_ + 1) / 2;
  const uint64_t m = r % n;
  if (m != 0 && m != half_n) r += m < half_n ? half_n - m : n - m;
  return 2 * r;
}

uint64_t Vco::passedHalves(double t) const {
  if (aim_half_ == next_half_) return next_half_;
  const double phase = phase_cycles_ + frequency_hz_ * (t - last_t_);
  const uint64_t crossed = static_cast<uint64_t>(std::floor(2.0 * phase)) + 1;
  return std::clamp(crossed, next_half_, aim_half_);
}

uint64_t Vco::risingEdgesBy(double t) const {
  if (!started_) return 0;
  PLLBIST_ASSERT(t >= last_t_);
  return (passedHalves(t) + 1) / 2;
}

}  // namespace pllbist::pll
