#include "bist/delay_line.hpp"

#include <cmath>
#include <stdexcept>

#include "common/units.hpp"

namespace pllbist::bist {

void DelayLineModulator::Config::validate() const {
  if (taps < 2) throw std::invalid_argument("DelayLineModulator: need at least 2 taps");
  if (tap_delay_s <= 0.0) throw std::invalid_argument("DelayLineModulator: tap delay must be positive");
  if (steps < 2) throw std::invalid_argument("DelayLineModulator: need at least 2 steps");
  if (nominal_hz <= 0.0) throw std::invalid_argument("DelayLineModulator: nominal must be positive");
  if (marker_pulse_s <= 0.0) throw std::invalid_argument("DelayLineModulator: marker width must be positive");
  // The whole line must stay well inside half a reference period or edges
  // would reorder when hopping taps.
  const double span = static_cast<double>(taps - 1) * tap_delay_s;
  if (span >= 0.25 / nominal_hz)
    throw std::invalid_argument("DelayLineModulator: delay span must be < Tref/4");
}

DelayLineModulator::DelayLineModulator(sim::Circuit& c, sim::SignalId in, sim::SignalId out,
                                       sim::SignalId peak_marker, const Config& cfg)
    : circuit_(c), handler_(c.addHandler(*this)), out_(out), peak_marker_(peak_marker), cfg_(cfg) {
  cfg_.validate();
  current_tap_ = (cfg_.taps - 1) / 2;  // idle mid-line
  // Retime every input edge through the currently selected tap. The base
  // (tap-0) delay models the line's fixed insertion delay.
  c.onChange(in, [this](double now, bool v) {
    const double delay = (1.0 + static_cast<double>(current_tap_)) * cfg_.tap_delay_s;
    circuit_.scheduleSet(out_, now + delay, v);
  });
}

int DelayLineModulator::tapForSlot(int slot) const {
  const int k = ((slot % cfg_.steps) + cfg_.steps) % cfg_.steps;
  const double phase = kTwoPi * static_cast<double>(k) / static_cast<double>(cfg_.steps);
  const double mid = static_cast<double>(cfg_.taps - 1) / 2.0;
  // Inverted: a *larger* delay retards the reference phase, so the tap
  // program is -sin for the output phase (and hence its derivative, the
  // equivalent input frequency deviation) to follow +sin/+cos with the
  // crest where the marker fires.
  const int tap = static_cast<int>(std::lround(mid - mid * std::sin(phase)));
  return std::min(cfg_.taps - 1, std::max(0, tap));
}

double DelayLineModulator::phaseDeviationRad() const {
  const double mid = static_cast<double>(cfg_.taps - 1) / 2.0;
  return mid * cfg_.tap_delay_s * kTwoPi * cfg_.nominal_hz;
}

void DelayLineModulator::start(double modulation_hz) {
  if (modulation_hz <= 0.0)
    throw std::invalid_argument("DelayLineModulator: modulation must be positive");
  modulation_hz_ = modulation_hz;
  running_ = true;
  ++generation_;
  slotBoundary(circuit_.now(), 0);
}

void DelayLineModulator::stop() {
  running_ = false;
  ++generation_;
  current_tap_ = (cfg_.taps - 1) / 2;
}

bool DelayLineModulator::onEvent(uint32_t tag, double now) {
  if (tag != generationTag(generation_, tag)) return false;  // an older program's event
  if ((tag & 1u) == kMarker) {
    circuit_.scheduleSet(peak_marker_, now, true);
    circuit_.scheduleSet(peak_marker_, now + cfg_.marker_pulse_s, false);
  } else {
    slotBoundary(now, (slot_ + 1) % cfg_.steps);
  }
  return true;
}

void DelayLineModulator::slotBoundary(double now, int slot) {
  slot_ = slot;
  current_tap_ = tapForSlot(slot);
  const double period = 1.0 / modulation_hz_;
  const double slot_width = period / static_cast<double>(cfg_.steps);
  if (slot == 0) {
    // Equivalent input *frequency* deviation peaks where the phase program
    // has its maximum upward slope — the period start, plus the half-slot
    // ZOH lag of the staircase.
    circuit_.scheduleEvent(now + 0.5 * slot_width, handler_, generationTag(generation_, kMarker));
  }
  circuit_.scheduleEvent(now + slot_width, handler_, generationTag(generation_, kSlot));
}

}  // namespace pllbist::bist
