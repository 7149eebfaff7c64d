#include "support/gates.hpp"

#include <stdexcept>

namespace pllbist::testing {

namespace {
void requirePositiveDelay(double delay_s) {
  if (delay_s <= 0.0)
    throw std::invalid_argument("sim primitive: delay must be positive (zero-delay loops hang)");
}
}  // namespace

Buffer::Buffer(sim::Circuit& c, sim::SignalId in, sim::SignalId out, double delay_s) {
  requirePositiveDelay(delay_s);
  c.onChange(in, [&c, out, delay_s](double now, bool v) { c.scheduleSet(out, now + delay_s, v); });
  c.scheduleSet(out, c.now() + delay_s, c.value(in));
}

AndGate::AndGate(sim::Circuit& c, sim::SignalId a, sim::SignalId b, sim::SignalId out,
                 double delay_s) {
  requirePositiveDelay(delay_s);
  auto update = [&c, a, b, out, delay_s](double now, bool) {
    c.scheduleSet(out, now + delay_s, c.value(a) && c.value(b));
  };
  c.onChange(a, update);
  c.onChange(b, update);
  update(c.now(), false);
}

DFlipFlop::DFlipFlop(sim::Circuit& c, sim::SignalId clk, sim::SignalId d, sim::SignalId q,
                     double clk_to_q_s, sim::SignalId reset, double reset_to_q_s)
    : circuit_(c), d_(d), q_(q), reset_(reset), clk_to_q_(clk_to_q_s), reset_to_q_(reset_to_q_s) {
  requirePositiveDelay(clk_to_q_s);
  if (reset != sim::kNoSignal) requirePositiveDelay(reset_to_q_s);
  c.onRisingEdge(clk, [this](double now) {
    if (reset_ != sim::kNoSignal && circuit_.value(reset_)) return;  // async reset dominates
    circuit_.scheduleSet(q_, now + clk_to_q_, circuit_.value(d_));
  });
  if (reset != sim::kNoSignal) {
    c.onRisingEdge(reset, [this](double now) { circuit_.scheduleSet(q_, now + reset_to_q_, false); });
  }
}

GatedCounter::GatedCounter(sim::Circuit& c, sim::SignalId in) {
  c.onRisingEdge(in, [this](double) {
    if (running_) ++count_;
  });
}

}  // namespace pllbist::testing
