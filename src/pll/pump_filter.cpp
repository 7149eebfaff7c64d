#include "pll/pump_filter.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/assert.hpp"

namespace pllbist::pll {

void PumpFilterConfig::validate() const {
  if (vdd_v <= vss_v) throw std::invalid_argument("PumpFilterConfig: vdd must exceed vss");
  if (r2_ohm <= 0.0 || c_farad <= 0.0)
    throw std::invalid_argument("PumpFilterConfig: R2 and C must be positive");
  if (kind == PumpKind::Voltage4046 && r1_ohm <= 0.0)
    throw std::invalid_argument("PumpFilterConfig: R1 must be positive for Voltage4046");
  if (kind == PumpKind::CurrentSteering && pump_current_a <= 0.0)
    throw std::invalid_argument("PumpFilterConfig: pump current must be positive");
  if (up_strength < 0.0 || down_strength < 0.0)
    throw std::invalid_argument("PumpFilterConfig: drive strengths must be non-negative");
  if (leak_ohm <= 0.0) throw std::invalid_argument("PumpFilterConfig: leak resistance must be positive");
  if (initial_vc_v < vss_v || initial_vc_v > vdd_v)
    throw std::invalid_argument("PumpFilterConfig: initial vc outside rails");
}

PumpFilter::PumpFilter(sim::Circuit& c, sim::SignalId up, sim::SignalId dn,
                       const PumpFilterConfig& cfg)
    : circuit_(c), cfg_(cfg), vc_(cfg.initial_vc_v), last_t_(c.now()) {
  cfg_.validate();
  up_active_ = c.value(up);
  dn_active_ = c.value(dn);
  recomputeRegime();
  c.onChange(up, [this](double now, bool v) {
    advanceTo(now);
    up_active_ = v;
    recomputeRegime();
    for (auto& cb : drive_listeners_) cb(now);
  });
  c.onChange(dn, [this](double now, bool v) {
    advanceTo(now);
    dn_active_ = v;
    recomputeRegime();
    for (auto& cb : drive_listeners_) cb(now);
  });
}

void PumpFilter::copyStateFrom(const PumpFilter& source) {
  up_active_ = source.up_active_;
  dn_active_ = source.dn_active_;
  vc_ = source.vc_;
  last_t_ = source.last_t_;
  regime_ = source.regime_;
  asym_v_ = source.asym_v_;
  tau_s_ = source.tau_s_;
  slope_vps_ = source.slope_vps_;
  out_a_ = source.out_a_;
  out_b_ = source.out_b_;
}

void PumpFilter::recomputeRegime() {
  const double g2 = 1.0 / cfg_.r2_ohm;
  const double gl = std::isinf(cfg_.leak_ohm) ? 0.0 : 1.0 / cfg_.leak_ohm;

  if (cfg_.kind == PumpKind::Voltage4046) {
    // Drive conductance towards Vs through R1; both-on (dead-zone overlap)
    // is modelled as high-Z, matching the break-before-make tri-stater.
    double g1 = 0.0;
    double vs = 0.0;
    if (up_active_ && !dn_active_) {
      g1 = cfg_.up_strength / cfg_.r1_ohm;
      vs = cfg_.vdd_v;
    } else if (dn_active_ && !up_active_) {
      g1 = cfg_.down_strength / cfg_.r1_ohm;
      vs = cfg_.vss_v;
    }
    const double geff = g1 + gl;
    if (geff <= 0.0) {
      regime_ = Regime::Hold;
      out_a_ = 0.0;
      out_b_ = 1.0;  // vy = vc when no current can flow
      return;
    }
    regime_ = Regime::Exponential;
    asym_v_ = (g1 * vs + gl * cfg_.vss_v) / geff;
    tau_s_ = cfg_.c_farad * (g1 + g2 + gl) / (g2 * geff);
    // Node equation: vy = (g1*Vs + gl*Vss + g2*vc) / (g1 + g2 + gl).
    out_a_ = (g1 * vs + gl * cfg_.vss_v) / (g1 + g2 + gl);
    out_b_ = g2 / (g1 + g2 + gl);
    return;
  }

  // CurrentSteering: net injected current; both-on leaves the up/down
  // mismatch residue flowing (the classical CP mismatch error mechanism).
  double current = 0.0;
  if (up_active_) current += cfg_.pump_current_a * cfg_.up_strength;
  if (dn_active_) current -= cfg_.pump_current_a * cfg_.down_strength;

  if (gl <= 0.0) {
    if (current == 0.0) {
      regime_ = Regime::Hold;
      out_a_ = 0.0;
      out_b_ = 1.0;
    } else {
      regime_ = Regime::Ramp;
      slope_vps_ = current / cfg_.c_farad;
      out_a_ = current * cfg_.r2_ohm;  // vy = vc + I*R2
      out_b_ = 1.0;
    }
    return;
  }
  // With leakage the node sees I and gl to VSS: exponential towards
  // A = I/gl + Vss with tau = C*(g2+gl)/(g2*gl).
  regime_ = Regime::Exponential;
  asym_v_ = current / gl + cfg_.vss_v;
  tau_s_ = cfg_.c_farad * (g2 + gl) / (g2 * gl);
  out_a_ = (current + gl * cfg_.vss_v) / (g2 + gl);
  out_b_ = g2 / (g2 + gl);
}

void PumpFilter::advanceTo(double t) {
  PLLBIST_ASSERT(t >= last_t_);
  const double dt = t - last_t_;
  if (dt == 0.0) return;
  switch (regime_) {
    case Regime::Hold:
      break;
    case Regime::Exponential:
      vc_ = asym_v_ + (vc_ - asym_v_) * std::exp(-dt / tau_s_);
      break;
    case Regime::Ramp:
      vc_ += slope_vps_ * dt;
      break;
  }
  // Supply-rail compliance: the passive node cannot leave [vss, vdd].
  vc_ = std::clamp(vc_, cfg_.vss_v, cfg_.vdd_v);
  last_t_ = t;
}

double PumpFilter::outputVoltageNow() const {
  return std::clamp(out_a_ + out_b_ * vc_, cfg_.vss_v, cfg_.vdd_v);
}

double PumpFilter::controlVoltage(double t) {
  advanceTo(t);
  return outputVoltageNow();
}

double PumpFilter::capVoltage(double t) {
  advanceTo(t);
  return vc_;
}

}  // namespace pllbist::pll
