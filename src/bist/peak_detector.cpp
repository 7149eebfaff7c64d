#include "bist/peak_detector.hpp"

#include <algorithm>
#include <stdexcept>

namespace pllbist::bist {

void PeakDetectorDelays::validate() const {
  if (clock_delay_s <= 0.0 || inverter_delay_s <= 0.0 || latch_delay_s <= 0.0)
    throw std::invalid_argument("PeakDetectorDelays: delays must be positive");
  if (inverter_delay_s <= clock_delay_s)
    throw std::invalid_argument(
        "PeakDetectorDelays: inverter delay must exceed clock delay so the sample "
        "looks past the dead-zone glitch");
}

PeakDetector::PeakDetector(sim::Circuit& c, pll::CpPll& pll, const PeakDetectorDelays& delays,
                           const std::string& prefix)
    : PeakDetector(c, pll.config().pfd, delays, prefix) {
  pll.addTap(*this);
}

PeakDetector::PeakDetector(sim::Circuit& c, const pll::PfdDelays& pfd_delays,
                           const PeakDetectorDelays& delays, const std::string& prefix)
    : circuit_(c),
      handler_(c.addHandler(*this)),
      pfd_delays_(pfd_delays),
      delays_(delays),
      up_(c.addSignal(prefix + ".pfd.up")),
      dn_(c.addSignal(prefix + ".pfd.dn")),
      rst_(c.addSignal(prefix + ".pfd.rst")),
      mfreq_(c.addSignal(prefix + ".mfreq")) {
  pfd_delays_.validate();
  delays_.validate();
}

void PeakDetector::onMaxFrequency(sim::Circuit::EdgeCallback cb) {
  circuit_.onFallingEdge(mfreq_, std::move(cb));
}

void PeakDetector::onMinFrequency(sim::Circuit::EdgeCallback cb) {
  circuit_.onRisingEdge(mfreq_, std::move(cb));
}

bool PeakDetector::onEvent(uint32_t, double now) {
  advanceTo(now);
  return true;
}

void PeakDetector::inputRose(bool fb, double t) {
  advanceTo(t);
  const double q_time = t + pfd_delays_.ff_clk_to_q_s;
  if (!reset_.held(t)) push(q_time, fb, true);
  // Later input edges write no earlier than q_time: everything up to it is
  // settled, and an UP rise in it schedules its sample now.
  advanceTo(q_time);
}

void PeakDetector::advanceTo(double t) {
  const auto earlier = [](const Write& a, const Write& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  };
  while (!pending_.empty()) {
    const auto next = std::min_element(pending_.begin(), pending_.end(), earlier);
    if (next->time > t) return;
    const Write w = *next;
    pending_.erase(next);
    apply(w);
  }
}

void PeakDetector::push(double t, bool dn, bool value) {
  pending_.push_back({t, next_seq_++, dn, value});
  const sim::SignalId q = dn ? dn_ : up_;
  if (circuit_.hasObservers(q)) circuit_.scheduleSet(q, t, value);
}

void PeakDetector::apply(const Write& w) {
  bool& q = w.dn ? dn_q_ : up_q_;
  if (q == w.value) return;  // the netlist swallows it
  q = w.value;
  if (w.dn) dn_edges_.push_back({w.time, w.value});
  const bool both = up_q_ && dn_q_;
  const double t = w.time + pfd_delays_.and_delay_s;
  // A falling write is applied lazily, possibly after t, unless a wake-up
  // was scheduled for it; an observer attached since then misses this one.
  if (t >= circuit_.now() && circuit_.hasObservers(rst_)) circuit_.scheduleSet(rst_, t, both);
  if (reset_.drive(t, both)) {
    const double t_reset = t + pfd_delays_.ff_reset_to_q_s;
    push(t_reset, false, false);
    push(t_reset, true, false);
    if (circuit_.hasObservers(rst_)) circuit_.scheduleEvent(t_reset, handler_, 0);
  }
  if (!w.dn && w.value) sample(w.time);
}

void PeakDetector::sample(double up_rise) {
  const double clk = up_rise + delays_.clock_delay_s;
  std::size_t seen = 0;
  while (seen < dn_edges_.size() && dn_edges_[seen].time + delays_.inverter_delay_s <= clk)
    dn_looked_back_ = dn_edges_[seen++].value;
  dn_edges_.erase(dn_edges_.begin(), dn_edges_.begin() + static_cast<std::ptrdiff_t>(seen));
  circuit_.scheduleSet(mfreq_, clk + delays_.latch_delay_s, !dn_looked_back_);
}

void PeakDetector::copyStateFrom(const PeakDetector& source) {
  up_q_ = source.up_q_;
  dn_q_ = source.dn_q_;
  reset_ = source.reset_;
  pending_ = source.pending_;
  next_seq_ = source.next_seq_;
  dn_edges_ = source.dn_edges_;
  dn_looked_back_ = source.dn_looked_back_;
}

}  // namespace pllbist::bist
