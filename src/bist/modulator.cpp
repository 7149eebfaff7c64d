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

void SineFmProgram::Config::validate() const {
  if (nominal_hz <= 0.0) throw std::invalid_argument("SineFmProgram: nominal must be positive");
  if (deviation_hz <= 0.0 || deviation_hz >= nominal_hz)
    throw std::invalid_argument("SineFmProgram: deviation must be in (0, nominal)");
  if (marker_pulse_s <= 0.0) throw std::invalid_argument("SineFmProgram: marker width must be positive");
}

SineFmProgram::SineFmProgram(sim::Circuit& c, pll::SineFmSource& source,
                             sim::SignalId peak_marker, const Config& cfg)
    : StimulusProgram(c, peak_marker, cfg.marker_pulse_s), source_(source), cfg_(cfg) {
  cfg_.validate();
}

void SineFmProgram::begin(double now) {
  source_.setCarrier(cfg_.nominal_hz);
  source_.setModulation(modulationHz(), cfg_.deviation_hz);
  // The positive crest: modulation phase pi/2 (mod 2*pi).
  const double period = 1.0 / modulationHz();
  const double phase_time = std::fmod(now - source_.modulationEpoch(), period);
  double wait = period * 0.25 - phase_time;
  constexpr double kMinWait = 1e-12;
  while (wait < kMinWait) wait += period;
  scheduleMarker(now + wait);
}

void SineFmProgram::idle(bool parked) {
  source_.setModulation(0.0, 0.0);
  source_.setCarrier(parked ? cfg_.nominal_hz + cfg_.deviation_hz : cfg_.nominal_hz);
}

}  // namespace pllbist::bist
