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

Vco::Vco(sim::Circuit& c, PumpFilter& filter, sim::SignalId out, const VcoConfig& cfg,
         double start_time_s, VcoDivider divider)
    : circuit_(c),
      handler_(c.addHandler(*this)),
      filter_(filter),
      out_(out),
      cfg_(cfg),
      divider_(divider) {
  cfg_.validate();
  if (divider_.out != sim::kNoSignal && (divider_.n < 1 || !(divider_.delay_s > 0.0)))
    throw std::invalid_argument("Vco: divider needs n >= 1 and a positive delay");
  PLLBIST_ASSERT(start_time_s >= c.now());
  circuit_.scheduleEvent(start_time_s, handler_, 0);
  // Re-integrate and re-sample across every pump pulse edge.
  filter.onDriveChange([this](double now) {
    if (!started_) return;
    integrateTo(now);
    retarget(now, true);
  });
}

bool Vco::onEvent(uint32_t tag, double now) {
  if (!started_) {
    start(now);
    return true;
  }
  if (tag != generation_) return false;  // superseded by a pump edge
  integrateTo(now);
  edge(aim_half_, now);
  return true;
}

void Vco::start(double now) {
  started_ = true;
  last_t_ = now;
  frequency_hz_ = cfg_.frequencyAt(filter_.controlVoltage(now));
  edge(0, now);  // phase 0: first rising edge
}

void Vco::integrateTo(double t) {
  PLLBIST_ASSERT(t >= last_t_);
  phase_cycles_ += frequency_hz_ * (t - last_t_);
  last_t_ = t;
  next_half_ = passedHalves(t);
}

void Vco::edge(uint64_t half, double now) {
  const bool rising = half % 2 == 0;
  if (circuit_.hasObservers(out_)) circuit_.scheduleSet(out_, now, rising);
  next_half_ = half + 1;
  // A frozen filter would hand back the voltage already sampled.
  retarget(now, !filter_.frozen());
  if (divider_.out == sim::kNoSignal) return;
  const double t = now + divider_.delay_s;
  if (divider_.n == 1) {
    circuit_.scheduleSet(divider_.out, t, rising);
    return;
  }
  if (!rising) return;
  const uint64_t count = (half / 2) % static_cast<uint64_t>(divider_.n);
  if (count == 0) circuit_.scheduleSet(divider_.out, t, true);
  if (count == static_cast<uint64_t>(divider_.n / 2)) circuit_.scheduleSet(divider_.out, t, false);
}

void Vco::retarget(double now, bool resample) {
  // Aim the pending event using the (possibly just re-sampled) frequency.
  // Any previously scheduled event is invalidated by the generation bump.
  if (resample) frequency_hz_ = cfg_.frequencyAt(filter_.controlVoltage(now));
  ++generation_;
  aim_half_ = nextAim();
  const double remaining_cycles = 0.5 * static_cast<double>(aim_half_) - phase_cycles_;
  const double wait = std::max(remaining_cycles, 0.0) / frequency_hz_;
  circuit_.scheduleEvent(now + wait, handler_, generation_);
}

uint64_t Vco::nextAim() const {
  if (!filter_.frozen() || circuit_.hasObservers(out_)) return next_half_;
  if (divider_.out == sim::kNoSignal || divider_.n == 1) return next_half_;
  // The next rising edge r with r mod n in {0, n/2}.
  const uint64_t n = static_cast<uint64_t>(divider_.n);
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

void Vco::copyStateFrom(const Vco& source) {
  started_ = source.started_;
  phase_cycles_ = source.phase_cycles_;
  next_half_ = source.next_half_;
  aim_half_ = source.aim_half_;
  last_t_ = source.last_t_;
  frequency_hz_ = source.frequency_hz_;
  generation_ = source.generation_;
}

uint64_t Vco::risingEdgesBy(double t) const {
  if (!started_) return 0;
  PLLBIST_ASSERT(t >= last_t_);
  return (passedHalves(t) + 1) / 2;
}

}  // namespace pllbist::pll
