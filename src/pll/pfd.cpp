#include "pll/pfd.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace pllbist::pll {

namespace {
constexpr double kNoClock = std::numeric_limits<double>::quiet_NaN();
}  // namespace

void PfdDelays::validate() const {
  if (ff_clk_to_q_s <= 0.0 || and_delay_s <= 0.0 || ff_reset_to_q_s <= 0.0)
    throw std::invalid_argument("PfdDelays: all delays must be positive");
}

Pfd::Pfd(const PfdDelays& delays) : delays_(delays) { delays_.validate(); }

void Pfd::push(double time, double clock, bool dn, bool value) {
  const Pending p{time, next_seq_++, clock, dn, value};
  auto at = pending_.end();
  while (at != pending_.begin() && (at - 1)->time > time) --at;
  pending_.insert(at, p);
}

void Pfd::clock(bool dn, double t) { push(t + delays_.ff_clk_to_q_s, t, dn, true); }

void Pfd::unclockFbAfter(double t) {
  std::erase_if(pending_, [t](const Pending& p) { return p.dn && p.clock > t; });
}

bool Pfd::applyNext(Write& w, bool& changed) {
  const Pending p = pending_.front();
  pending_.erase(pending_.begin());
  // The asynchronous reset dominates the clock. Clock edges come in time
  // order, so held() is queried in time order.
  if (!std::isnan(p.clock) && reset_.held(p.clock)) return false;
  w = {p.time, p.dn, p.value};
  bool& q = p.dn ? dn_ : up_;
  changed = q != p.value;
  if (!changed) return true;
  q = p.value;
  const double t = p.time + delays_.and_delay_s;
  if (reset_.drive(t, up_ && dn_)) {
    const double t_reset = t + delays_.ff_reset_to_q_s;
    push(t_reset, kNoClock, false, false);
    push(t_reset, kNoClock, true, false);
  }
  return true;
}

}  // namespace pllbist::pll
