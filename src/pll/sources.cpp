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
  if (!std::isfinite(modulation_hz) || modulation_hz < 0.0)
    throw std::invalid_argument("SineFmSource: modulation frequency must be finite and >= 0");
  if (edge_jitter_rms_s < 0.0)
    throw std::invalid_argument("SineFmSource: jitter RMS must be >= 0");
  if (edge_jitter_rms_s > 0.05 / nominal_hz)
    throw std::invalid_argument("SineFmSource: jitter RMS must stay below 5% of the period");
  requireJitterFits(edge_jitter_rms_s, nominal_hz + deviation_hz);
}

SineFmSource::SineFmSource(sim::Circuit& c, sim::SignalId out, const Config& cfg)
    : ReferenceSource(c, out),
      circuit_(c),
      cfg_(cfg),
      mod_epoch_(cfg.start_time_s),
      next_toggle_(cfg.start_time_s),
      jitter_rng_(cfg.jitter_seed) {
  cfg_.validate();
  PLLBIST_ASSERT(cfg.start_time_s >= c.now());
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

double SineFmSource::toggle(double now) {
  // Track the output polarity internally: with jitter, the previous
  // emission may still be in flight.
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
  if (!std::isfinite(modulation_hz) || modulation_hz < 0.0)
    throw std::invalid_argument("SineFmSource: modulation frequency must be finite and >= 0");
  if (deviation_hz < 0.0 || deviation_hz >= cfg_.nominal_hz)
    throw std::invalid_argument("SineFmSource: deviation must be in [0, nominal)");
  requireJitterFits(cfg_.edge_jitter_rms_s, cfg_.nominal_hz + deviation_hz);
  cfg_.modulation_hz = modulation_hz;
  cfg_.deviation_hz = deviation_hz;
  mod_epoch_ = circuit_.now();
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
  out_state_ = source.out_state_;
  next_toggle_ = source.next_toggle_;
  copySourceStateFrom(source);
  jitter_rng_.seed(own_seed);
  jitter_dist_.reset();
}

}  // namespace pllbist::pll
