#include "pll/probes.hpp"

#include <stdexcept>

#include "common/assert.hpp"

namespace pllbist::pll {

AnalogProbe::AnalogProbe(sim::Circuit& c, std::function<double()> getter, sim::Trace& trace,
                         double interval_s, double start_time_s)
    : circuit_(c), getter_(std::move(getter)), trace_(trace), interval_(interval_s) {
  if (interval_s <= 0.0) throw std::invalid_argument("AnalogProbe: interval must be positive");
  restart(start_time_s);
}

void AnalogProbe::setInterval(double interval_s) {
  if (interval_s <= 0.0) throw std::invalid_argument("AnalogProbe: interval must be positive");
  interval_ = interval_s;
}

void AnalogProbe::restart(double start_time_s) {
  PLLBIST_ASSERT(start_time_s >= circuit_.now());
  const unsigned generation = ++generation_;
  circuit_.scheduleCallback(start_time_s,
                            [this, generation](double now) { sample(now, generation); });
}

void AnalogProbe::sample(double now, unsigned generation) {
  if (generation != generation_) return;
  trace_.append(now, getter_());
  circuit_.scheduleCallback(now + interval_,
                            [this, generation](double t) { sample(t, generation); });
}

LockDetector::LockDetector(CpPll& pll, double width_threshold_s, int required_pulses)
    : LockDetector(width_threshold_s, required_pulses) {
  pll.addTap(*this);
}

LockDetector::LockDetector(double width_threshold_s, int required_pulses)
    : threshold_(width_threshold_s), required_(required_pulses) {
  if (width_threshold_s <= 0.0) throw std::invalid_argument("LockDetector: threshold must be positive");
  if (required_pulses < 1)
    throw std::invalid_argument("LockDetector: required pulses must be >= 1");
}

bool LockDetector::pumpChanged(bool dn, bool high, double now) {
  double& rise = dn ? dn_rise_ : up_rise_;
  if (high) {
    rise = now;
    return false;
  }
  return rise >= 0.0 && pulseFinished(now, now - rise);
}

bool LockDetector::pulseFinished(double now, double width) {
  const bool was_locked = isLocked();
  if (width <= threshold_) {
    if (consecutive_ok_ < required_) {
      ++consecutive_ok_;
      if (consecutive_ok_ == required_) lock_time_ = now;
    }
  } else {
    consecutive_ok_ = 0;
  }
  return isLocked() != was_locked;
}

}  // namespace pllbist::pll
