#include "pll/vco.hpp"

#include <algorithm>
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
         double start_time_s)
    : circuit_(c), handler_(c.addHandler(*this)), filter_(filter), out_(out), cfg_(cfg) {
  cfg_.validate();
  PLLBIST_ASSERT(start_time_s >= c.now());
  circuit_.scheduleEvent(start_time_s, handler_, 0);
  // Re-integrate across every pump pulse edge.
  filter.onDriveChange([this](double now) {
    if (!started_) return;
    integrateTo(now);
    retarget(now);
  });
}

bool Vco::onEvent(uint32_t tag, double now) {
  if (!started_) {
    start(now);
    return true;
  }
  if (tag != generation_) return false;  // superseded by a pump edge
  integrateTo(now);
  circuit_.scheduleSet(out_, now, !circuit_.value(out_));
  next_toggle_phase_ += 0.5;
  retarget(now);
  return true;
}

void Vco::start(double now) {
  started_ = true;
  last_t_ = now;
  frequency_hz_ = cfg_.frequencyAt(filter_.controlVoltage(now));
  circuit_.scheduleSet(out_, now, true);  // phase 0: first rising edge
  retarget(now);
}

void Vco::integrateTo(double t) {
  PLLBIST_ASSERT(t >= last_t_);
  phase_cycles_ += frequency_hz_ * (t - last_t_);
  last_t_ = t;
}

void Vco::retarget(double now) {
  // Sample the (possibly just-changed) control voltage and aim the pending
  // toggle event using the new frequency. Any previously scheduled toggle
  // is invalidated by the generation bump.
  frequency_hz_ = cfg_.frequencyAt(filter_.controlVoltage(now));
  const double remaining_cycles = next_toggle_phase_ - phase_cycles_;
  const double wait = std::max(remaining_cycles, 0.0) / frequency_hz_;
  circuit_.scheduleEvent(now + wait, handler_, ++generation_);
}

}  // namespace pllbist::pll
