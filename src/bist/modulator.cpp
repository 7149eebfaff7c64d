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
    : SlotProgram(c, peak_marker, cfg.steps, cfg.marker_pulse_s, 0.25), dco_(dco), cfg_(cfg) {
  cfg_.validate();
  idle(false);
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

}  // namespace pllbist::bist
