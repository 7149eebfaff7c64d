#include "pll/pfd.hpp"

#include <stdexcept>

namespace pllbist::pll {

void PfdDelays::validate() const {
  if (ff_clk_to_q_s <= 0.0 || and_delay_s <= 0.0 || ff_reset_to_q_s <= 0.0)
    throw std::invalid_argument("PfdDelays: all delays must be positive");
}

Pfd::Pfd(sim::Circuit& c, sim::SignalId ref, sim::SignalId fb, const PfdDelays& delays,
         const std::string& prefix)
    : circuit_(c),
      delays_(delays),
      up_(c.addSignal(prefix + ".up")),
      dn_(c.addSignal(prefix + ".dn")),
      rst_(c.addSignal(prefix + ".rst")) {
  delays_.validate();
  c.onRisingEdge(ref, [this](double now) { clock(up_, now); });
  c.onRisingEdge(fb, [this](double now) { clock(dn_, now); });
  c.onChange(up_, [this](double now, bool) { outputsChanged(now); });
  c.onChange(dn_, [this](double now, bool) { outputsChanged(now); });
}

void Pfd::clock(sim::SignalId q, double now) {
  if (reset_.held(now)) return;  // the asynchronous reset dominates
  circuit_.scheduleSet(q, now + delays_.ff_clk_to_q_s, true);
}

void Pfd::outputsChanged(double now) {
  const bool both = circuit_.value(up_) && circuit_.value(dn_);
  const double t = now + delays_.and_delay_s;
  if (circuit_.hasObservers(rst_)) circuit_.scheduleSet(rst_, t, both);
  if (!reset_.drive(t, both)) return;
  const double t_reset = t + delays_.ff_reset_to_q_s;
  circuit_.scheduleSet(up_, t_reset, false);
  circuit_.scheduleSet(dn_, t_reset, false);
}

}  // namespace pllbist::pll
