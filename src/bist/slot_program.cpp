#include "bist/slot_program.hpp"

#include <stdexcept>

namespace pllbist::bist {

SlotProgram::SlotProgram(sim::Circuit& c, sim::SignalId peak_marker, int steps,
                         double marker_pulse_s, double crest_fraction)
    : circuit_(c),
      handler_(c.addHandler(*this)),
      peak_marker_(peak_marker),
      steps_(steps),
      marker_pulse_s_(marker_pulse_s),
      crest_fraction_(crest_fraction) {}

void SlotProgram::start(double modulation_hz) {
  if (modulation_hz <= 0.0) throw std::invalid_argument("SlotProgram: modulation must be positive");
  modulation_hz_ = modulation_hz;
  running_ = true;
  ++generation_;
  slotBoundary(circuit_.now(), 0);
}

void SlotProgram::end(bool parked) {
  running_ = false;
  ++generation_;
  idle(parked);
}

bool SlotProgram::onEvent(uint32_t tag, double now) {
  if (tag != generationTag(generation_, tag)) return false;  // an older program's event
  if ((tag & 1u) == kMarker) {
    circuit_.scheduleSet(peak_marker_, now, true);
    circuit_.scheduleSet(peak_marker_, now + marker_pulse_s_, false);
  } else {
    slotBoundary(now, (slot_ + 1) % steps_);
  }
  return true;
}

void SlotProgram::slotBoundary(double now, int slot) {
  slot_ = slot;
  select(slot);
  const double period = 1.0 / modulation_hz_;
  const double slot_width = period / static_cast<double>(steps_);
  if (slot == 0) {
    circuit_.scheduleEvent(now + crest_fraction_ * period + 0.5 * slot_width, handler_,
                           generationTag(generation_, kMarker));
  }
  circuit_.scheduleEvent(now + slot_width, handler_, generationTag(generation_, kSlot));
}

}  // namespace pllbist::bist
