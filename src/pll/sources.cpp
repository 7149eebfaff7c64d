#include "pll/sources.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/units.hpp"

namespace pllbist::pll {

namespace {
void requireJitterFits(double edge_jitter_rms_s, double peak_hz) {
  if (!SineFmSource::jitterFitsHalfPeriod(edge_jitter_rms_s, peak_hz))
    throw std::invalid_argument(
        "SineFmSource: 6x jitter RMS must stay below the half period at nominal + deviation");
}
}  // namespace

void SineFmSource::Config::validate() const {
  if (nominal_hz <= 0.0) throw std::invalid_argument("SineFmSource: nominal frequency must be positive");
  if (deviation_hz < 0.0 || deviation_hz >= nominal_hz)
    throw std::invalid_argument("SineFmSource: deviation must be in [0, nominal)");
  if (modulation_hz < 0.0) throw std::invalid_argument("SineFmSource: modulation frequency must be >= 0");
  if (marker_pulse_s <= 0.0) throw std::invalid_argument("SineFmSource: marker pulse width must be positive");
  if (edge_jitter_rms_s < 0.0)
    throw std::invalid_argument("SineFmSource: jitter RMS must be >= 0");
  if (edge_jitter_rms_s > 0.05 / nominal_hz)
    throw std::invalid_argument("SineFmSource: jitter RMS must stay below 5% of the period");
  requireJitterFits(edge_jitter_rms_s, nominal_hz + deviation_hz);
}

SineFmSource::SineFmSource(sim::Circuit& c, sim::SignalId out, sim::SignalId peak_marker,
                           const Config& cfg, sim::SourceMode mode)
    : ReferenceSource(c, out, mode),
      circuit_(c),
      handler_(c.addHandler(*this)),
      out_(out),
      peak_marker_(peak_marker),
      cfg_(cfg),
      mod_epoch_(cfg.start_time_s),
      next_toggle_(cfg.start_time_s),
      jitter_rng_(cfg.jitter_seed) {
  cfg_.validate();
  PLLBIST_ASSERT(cfg.start_time_s >= c.now());
  if (mode == sim::SourceMode::Drive) circuit_.scheduleEvent(cfg.start_time_s, handler_, kToggle);
  if (cfg_.modulation_hz > 0.0) schedulePeakMarker(cfg.start_time_s);
}

double SineFmSource::instantaneousFrequency(double t) const {
  if (cfg_.modulation_hz <= 0.0 || t < mod_epoch_) return cfg_.nominal_hz;
  return cfg_.nominal_hz +
         cfg_.deviation_hz * std::sin(kTwoPi * cfg_.modulation_hz * (t - mod_epoch_));
}

double SineFmSource::jitteredEmissionTime(double clean_time) {
  if (cfg_.edge_jitter_rms_s <= 0.0) return clean_time;
  // Non-accumulating edge jitter: the internal (clean) timeline is never
  // perturbed, only the emitted transition. A fixed +3 sigma insertion
  // delay keeps every emission in the future; truncation at +/-3 sigma
  // guarantees edges cannot reorder (6 sigma < half period by validate()).
  const double sigma = cfg_.edge_jitter_rms_s;
  double j = jitter_dist_(jitter_rng_) * sigma;
  j = std::clamp(j, -3.0 * sigma, 3.0 * sigma);
  return clean_time + 3.0 * sigma + j;
}

bool SineFmSource::onEvent(uint32_t tag, double now) {
  if (tag == kToggle) {
    const double emission = toggle(now);
    circuit_.scheduleSet(out_, emission, out_state_);
    circuit_.scheduleEvent(next_toggle_, handler_, kToggle);
    return true;
  }
  if (tag != markerTag()) return false;  // scheduled under an older program
  circuit_.scheduleSet(peak_marker_, now, true);
  circuit_.scheduleSet(peak_marker_, now + cfg_.marker_pulse_s, false);
  circuit_.scheduleEvent(now + 1.0 / cfg_.modulation_hz, handler_, tag);
  return true;
}

double SineFmSource::toggle(double now) {
  // Track the output polarity internally: with jitter, the previous
  // emission may still be queued, so reading the net's current value would
  // produce duplicate (swallowed) transitions.
  out_state_ = !out_state_;
  const double emission = jitteredEmissionTime(now);
  next_toggle_ = now + 0.5 / instantaneousFrequency(now);
  return emission;
}

bool SineFmSource::advance(double now) {
  if (decidedEdge() > now) {  // the instant is a toggle
    const double emission = toggle(now);
    decide(emission, out_state_);
    if (decidedEdge() > now) return false;
  }
  landDecidedEdge(now);
  return true;
}

void SineFmSource::setModulation(double modulation_hz, double deviation_hz) {
  if (modulation_hz < 0.0) throw std::invalid_argument("SineFmSource: modulation frequency must be >= 0");
  if (deviation_hz < 0.0 || deviation_hz >= cfg_.nominal_hz)
    throw std::invalid_argument("SineFmSource: deviation must be in [0, nominal)");
  requireJitterFits(cfg_.edge_jitter_rms_s, cfg_.nominal_hz + deviation_hz);
  cfg_.modulation_hz = modulation_hz;
  cfg_.deviation_hz = deviation_hz;
  mod_epoch_ = circuit_.now();
  ++marker_generation_;  // cancel any marker scheduled under the old program
  if (modulation_hz > 0.0) schedulePeakMarker(circuit_.now());
}

void SineFmSource::setCarrier(double nominal_hz) {
  if (nominal_hz <= 0.0) throw std::invalid_argument("SineFmSource: carrier must be positive");
  if (cfg_.deviation_hz >= nominal_hz)
    throw std::invalid_argument("SineFmSource: carrier must exceed deviation");
  requireJitterFits(cfg_.edge_jitter_rms_s, nominal_hz + cfg_.deviation_hz);
  cfg_.nominal_hz = nominal_hz;
}

void SineFmSource::copyStateFrom(const SineFmSource& source) {
  const unsigned own_seed = cfg_.jitter_seed;
  cfg_ = source.cfg_;
  cfg_.jitter_seed = own_seed;
  mod_epoch_ = source.mod_epoch_;
  marker_generation_ = source.marker_generation_;
  out_state_ = source.out_state_;
  next_toggle_ = source.next_toggle_;
  copySourceStateFrom(source);
  jitter_rng_.seed(own_seed);
  jitter_dist_.reset();
}

void SineFmSource::schedulePeakMarker(double from_time) {
  // Positive crest: modulation phase = pi/2 (mod 2*pi). Subsequent markers
  // advance by exactly one period (re-deriving the phase with fmod would
  // accumulate round-off and can collapse the wait to ~0, livelocking the
  // event queue).
  const double period = 1.0 / cfg_.modulation_hz;
  const double phase_time = std::fmod(from_time - mod_epoch_, period);
  double wait = period * 0.25 - phase_time;
  const double kMinWait = 1e-12;
  while (wait < kMinWait) wait += period;
  circuit_.scheduleEvent(from_time + wait, handler_, markerTag());
}

}  // namespace pllbist::pll
