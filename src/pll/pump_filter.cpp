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

PumpFilter::PumpFilter(const PumpFilterConfig& cfg, double start_time_s)
    : cfg_(cfg), vc_(cfg.initial_vc_v), last_t_(start_time_s) {
  cfg_.validate();
  for (int d = 0; d < 4; ++d) segments_[d] = segmentFor(cfg_, (d & kUp) != 0, (d & kDn) != 0);
}

void PumpFilter::drive(double t, bool dn, bool on) {
  advanceTo(t);
  const int bit = dn ? kDn : kUp;
  drive_ = on ? drive_ | bit : drive_ & ~bit;
}

PumpFilter::Segment PumpFilter::segmentFor(const PumpFilterConfig& cfg, bool up, bool dn) {
  const double g2 = 1.0 / cfg.r2_ohm;
  const double gl = std::isinf(cfg.leak_ohm) ? 0.0 : 1.0 / cfg.leak_ohm;
  Segment seg;

  if (cfg.kind == PumpKind::Voltage4046) {
    // Drive conductance towards Vs through R1; both-on (dead-zone overlap)
    // is modelled as high-Z, matching the break-before-make tri-stater.
    double g1 = 0.0;
    double vs = 0.0;
    if (up && !dn) {
      g1 = cfg.up_strength / cfg.r1_ohm;
      vs = cfg.vdd_v;
    } else if (dn && !up) {
      g1 = cfg.down_strength / cfg.r1_ohm;
      vs = cfg.vss_v;
    }
    const double geff = g1 + gl;
    if (geff <= 0.0) return seg;  // Hold: vy = vc when no current can flow
    seg.regime = Regime::Exponential;
    seg.asym_v = (g1 * vs + gl * cfg.vss_v) / geff;
    seg.tau_s = cfg.c_farad * (g1 + g2 + gl) / (g2 * geff);
    // Node equation: vy = (g1*Vs + gl*Vss + g2*vc) / (g1 + g2 + gl).
    seg.out_a = (g1 * vs + gl * cfg.vss_v) / (g1 + g2 + gl);
    seg.out_b = g2 / (g1 + g2 + gl);
    return seg;
  }

  // CurrentSteering: net injected current; both-on leaves the up/down
  // mismatch residue flowing (the classical CP mismatch error mechanism).
  double current = 0.0;
  if (up) current += cfg.pump_current_a * cfg.up_strength;
  if (dn) current -= cfg.pump_current_a * cfg.down_strength;

  if (gl <= 0.0) {
    if (current == 0.0) return seg;  // Hold
    seg.regime = Regime::Ramp;
    seg.slope_vps = current / cfg.c_farad;
    seg.out_a = current * cfg.r2_ohm;  // vy = vc + I*R2
    return seg;
  }
  // With leakage the node sees I and gl to VSS: exponential towards
  // A = I/gl + Vss with tau = C*(g2+gl)/(g2*gl).
  seg.regime = Regime::Exponential;
  seg.asym_v = current / gl + cfg.vss_v;
  seg.tau_s = cfg.c_farad * (g2 + gl) / (g2 * gl);
  seg.out_a = (current + gl * cfg.vss_v) / (g2 + gl);
  seg.out_b = g2 / (g2 + gl);
  return seg;
}

void PumpFilter::advanceTo(double t) {
  PLLBIST_ASSERT(t >= last_t_);
  const double dt = t - last_t_;
  if (dt == 0.0) return;
  const Segment& seg = segments_[drive_];
  switch (seg.regime) {
    case Regime::Hold:
      break;
    case Regime::Exponential:
      vc_ = seg.asym_v + (vc_ - seg.asym_v) * std::exp(-dt / seg.tau_s);
      break;
    case Regime::Ramp:
      vc_ += seg.slope_vps * dt;
      break;
  }
  // Supply-rail compliance: the passive node cannot leave [vss, vdd].
  vc_ = std::clamp(vc_, cfg_.vss_v, cfg_.vdd_v);
  last_t_ = t;
}

double PumpFilter::outputVoltageNow() const {
  const Segment& seg = segments_[drive_];
  return std::clamp(seg.out_a + seg.out_b * vc_, cfg_.vss_v, cfg_.vdd_v);
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
