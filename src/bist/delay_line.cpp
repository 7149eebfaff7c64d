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

DelayLineModulator::DelayLineModulator(sim::Circuit& c, sim::ClockSource& in, sim::SignalId out,
                                       sim::SignalId peak_marker, const Config& cfg)
    : SlotProgram(c, peak_marker, cfg.steps, cfg.marker_pulse_s, 0.0),
      ReferenceSource(c, out),
      cfg_(cfg),
      clock_(in) {
  in.claim();
  cfg_.validate();
  for (int k = 0; k < cfg_.steps; ++k) slot_taps_.push_back(tapForSlot(k));
}

bool DelayLineModulator::advance(double now) {
  if (decidedEdge() <= now) {
    landDecidedEdge(now);
    return true;
  }
  // A clock edge: it passes through the tap selected now.
  if (clock_.advance(now)) decide(now + delay(), clock_.level());
  return false;
}

void DelayLineModulator::copyOwnStateFrom(const StimulusProgram& source) {
  SlotProgram::copyOwnStateFrom(source);
  copySourceStateFrom(static_cast<const DelayLineModulator&>(source));
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

}  // namespace pllbist::bist
