#include "bist/dco.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/assert.hpp"

namespace pllbist::bist {

void Dco::Config::validate() const {
  if (master_clock_hz <= 0.0) throw std::invalid_argument("Dco: master clock must be positive");
  if (initial_modulus < 2) throw std::invalid_argument("Dco: modulus must be >= 2");
  if (start_time_s < 0.0) throw std::invalid_argument("Dco: start time must be >= 0");
}

Dco::Dco(sim::Circuit& c, sim::SignalId out, const Config& cfg)
    : ReferenceSource(c, out), cfg_(cfg) {
  cfg_.validate();
  tick_s_ = 1.0 / cfg_.master_clock_hz;
  modulus_ = pending_modulus_ = cfg_.initial_modulus;
  tick_ = static_cast<std::int64_t>(std::ceil(cfg_.start_time_s / tick_s_));
  PLLBIST_ASSERT(static_cast<double>(tick_) * tick_s_ >= c.now());
}

double Dco::rise() {
  modulus_ = pending_modulus_;  // hop frequencies only at rising edges
  const double fall = static_cast<double>(tick_ + modulus_ / 2) * tick_s_;
  tick_ += modulus_;
  return fall;
}

bool Dco::advance(double now) {
  if (decidedEdge() <= now) {
    landDecidedEdge(now);
  } else {
    decide(rise(), false);
    land(now, true);
  }
  return true;
}

int Dco::modulusFor(double hz) const {
  if (hz <= 0.0 || hz > cfg_.master_clock_hz / 2.0)
    throw std::invalid_argument("Dco: frequency outside (0, master/2]");
  const int m = static_cast<int>(std::lround(cfg_.master_clock_hz / hz));
  return std::max(2, m);
}

double Dco::frequencyOf(int modulus) const {
  if (modulus < 2) throw std::invalid_argument("Dco: modulus must be >= 2");
  return cfg_.master_clock_hz / static_cast<double>(modulus);
}

double Dco::quantize(double hz) const { return frequencyOf(modulusFor(hz)); }

double Dco::setFrequency(double hz) {
  pending_modulus_ = modulusFor(hz);
  return frequencyOf(pending_modulus_);
}

void Dco::setModulus(int modulus) {
  if (modulus < 2) throw std::invalid_argument("Dco: modulus must be >= 2");
  pending_modulus_ = modulus;
}

double Dco::pendingFrequency() const { return frequencyOf(pending_modulus_); }

double Dco::resolutionAt(double hz) const {
  const int m = modulusFor(hz);
  return frequencyOf(m) - frequencyOf(m + 1);
}

double Dco::resolutionEq2(double fin_nominal_hz, double fref_master_hz) {
  if (fin_nominal_hz <= 0.0 || fref_master_hz <= 0.0)
    throw std::invalid_argument("resolutionEq2: frequencies must be positive");
  return fin_nominal_hz * fin_nominal_hz / (fref_master_hz + fin_nominal_hz);
}

}  // namespace pllbist::bist
