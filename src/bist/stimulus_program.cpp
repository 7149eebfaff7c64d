#include "bist/stimulus_program.hpp"

#include <cmath>
#include <stdexcept>

namespace pllbist::bist {

StimulusProgram::StimulusProgram(sim::Circuit& c, sim::SignalId peak_marker,
                                 double marker_pulse_s)
    : circuit_(c),
      handler_(c.addHandler(*this)),
      peak_marker_(peak_marker),
      marker_pulse_s_(marker_pulse_s) {}

void StimulusProgram::start(double modulation_hz) {
  if (!std::isfinite(modulation_hz) || modulation_hz <= 0.0)
    throw std::invalid_argument("StimulusProgram: modulation must be positive and finite");
  modulation_hz_ = modulation_hz;
  running_ = true;
  ++generation_;
  begin(circuit_.now());
}

void StimulusProgram::end(bool parked) {
  running_ = false;
  ++generation_;
  idle(parked);
}

bool StimulusProgram::onEvent(uint32_t tag, double now) {
  if (tag != generationTag(generation_, tag)) return false;  // an older program's event
  if ((tag & 1u) == kMarker) {
    circuit_.scheduleSet(peak_marker_, now, true);
    circuit_.scheduleSet(peak_marker_, now + marker_pulse_s_, false);
    crested(now);
  } else {
    step(now);
  }
  return true;
}

void SlotProgram::slotBoundary(double now, int slot) {
  slot_ = slot;
  select(slot);
  const double period = 1.0 / modulationHz();
  const double slot_width = period / static_cast<double>(steps_);
  if (slot == 0) scheduleMarker(now + crest_fraction_ * period + 0.5 * slot_width);
  scheduleStep(now + slot_width);
}

}  // namespace pllbist::bist
