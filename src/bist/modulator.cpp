#include "bist/modulator.hpp"

#include <cmath>
#include <stdexcept>

#include "common/units.hpp"

namespace pllbist::bist {

void FskModulator::Config::validate() const {
  if (steps < 2) throw std::invalid_argument("FskModulator: need at least 2 steps");
  if (nominal_hz <= 0.0) throw std::invalid_argument("FskModulator: nominal must be positive");
  if (deviation_hz <= 0.0 || deviation_hz >= nominal_hz)
    throw std::invalid_argument("FskModulator: deviation must be in (0, nominal)");
  if (marker_pulse_s <= 0.0) throw std::invalid_argument("FskModulator: marker width must be positive");
}

FskModulator::FskModulator(sim::Circuit& c, Dco& dco, sim::SignalId peak_marker, const Config& cfg)
    : circuit_(c), handler_(c.addHandler(*this)), dco_(dco), peak_marker_(peak_marker), cfg_(cfg) {
  cfg_.validate();
  dco_.setFrequency(cfg_.nominal_hz);
}

double FskModulator::programFrequency(int slot) const {
  const int k = ((slot % cfg_.steps) + cfg_.steps) % cfg_.steps;
  const double phase = kTwoPi * static_cast<double>(k) / static_cast<double>(cfg_.steps);
  switch (cfg_.waveform) {
    case StimulusWaveform::MultiToneFsk:
      return cfg_.nominal_hz + cfg_.deviation_hz * std::sin(phase);
    case StimulusWaveform::TwoToneFsk:
      return cfg_.nominal_hz + (k < cfg_.steps / 2 ? cfg_.deviation_hz : -cfg_.deviation_hz);
  }
  return cfg_.nominal_hz;
}

void FskModulator::start(double modulation_hz) {
  if (modulation_hz <= 0.0) throw std::invalid_argument("FskModulator: modulation must be positive");
  modulation_hz_ = modulation_hz;
  running_ = true;
  ++generation_;
  slotBoundary(circuit_.now(), 0);
}

void FskModulator::stop() {
  running_ = false;
  ++generation_;
  dco_.setFrequency(cfg_.nominal_hz);
}

void FskModulator::park() {
  running_ = false;
  ++generation_;
  dco_.setFrequency(cfg_.nominal_hz + cfg_.deviation_hz);
}

bool FskModulator::onEvent(uint32_t tag, double now) {
  if (tag != generationTag(generation_, tag)) return false;  // an older program's event
  if ((tag & 1u) == kMarker) {
    circuit_.scheduleSet(peak_marker_, now, true);
    circuit_.scheduleSet(peak_marker_, now + cfg_.marker_pulse_s, false);
  } else {
    slotBoundary(now, (slot_ + 1) % cfg_.steps);
  }
  return true;
}

void FskModulator::slotBoundary(double now, int slot) {
  slot_ = slot;
  dco_.setFrequency(programFrequency(slot));
  const double period = 1.0 / modulation_hz_;
  const double slot_width_now = period / static_cast<double>(cfg_.steps);
  if (slot == 0) {
    // The stepped (zero-order-hold) program's *fundamental* lags the ideal
    // sine by half a slot, so the crest marker fires at a quarter period
    // plus half a slot — the centre of the maximal step. Without this the
    // phase plot carries a systematic 180/steps-degree error.
    circuit_.scheduleEvent(now + 0.25 * period + 0.5 * slot_width_now, handler_,
                           generationTag(generation_, kMarker));
  }
  const double slot_width = period / static_cast<double>(cfg_.steps);
  circuit_.scheduleEvent(now + slot_width, handler_, generationTag(generation_, kSlot));
}

}  // namespace pllbist::bist
