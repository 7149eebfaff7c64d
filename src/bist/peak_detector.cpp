#include "bist/peak_detector.hpp"

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
      delays_(delays),
      up_(c.addSignal(prefix + ".pfd.up")),
      dn_(c.addSignal(prefix + ".pfd.dn")),
      rst_(c.addSignal(prefix + ".pfd.rst")),
      mfreq_(c.addSignal(prefix + ".mfreq")),
      monitor_(pfd_delays) {
  delays_.validate();
}

void PeakDetector::onMaxFrequency(sim::Circuit::EdgeCallback cb) {
  circuit_.onFallingEdge(mfreq_, std::move(cb));
}

void PeakDetector::onMinFrequency(sim::Circuit::EdgeCallback cb) {
  circuit_.onRisingEdge(mfreq_, std::move(cb));
}

bool PeakDetector::onEvent(uint32_t, double now) {
  settle(now);
  return true;
}

void PeakDetector::inputRose(bool fb, double t) {
  settle(t);
  monitor_.clock(fb, t);
  // Later input edges write no earlier than t + clk-to-q: everything up to
  // it is settled, and an UP rise in it schedules its sample now.
  settle(t + monitor_.delays().ff_clk_to_q_s);
}

void PeakDetector::settle(double t) {
  const pll::PfdDelays& pfd = monitor_.delays();
  pll::Pfd::Write w;
  bool changed = false;
  while (monitor_.nextWriteTime() <= t) {
    if (!monitor_.applyNext(w, changed)) continue;
    const sim::SignalId q = w.dn ? dn_ : up_;
    // A falling write reached the observers when its reset window opened.
    if (w.value && circuit_.hasObservers(q)) circuit_.scheduleSet(q, w.time, true);
    if (!changed) continue;
    if (w.dn) dn_late_.changes.push_back({w.time + delays_.inverter_delay_s, w.value});
    const bool both = monitor_.up() && monitor_.dn();
    const double t_and = w.time + pfd.and_delay_s;
    // A falling write is applied lazily, possibly after t_and, unless a
    // wake-up was scheduled for it; an observer attached since then misses
    // this one.
    if (t_and >= circuit_.now() && circuit_.hasObservers(rst_))
      circuit_.scheduleSet(rst_, t_and, both);
    if (both) {  // the reset window opens
      const double t_reset = t_and + pfd.ff_reset_to_q_s;
      if (circuit_.hasObservers(up_)) circuit_.scheduleSet(up_, t_reset, false);
      if (circuit_.hasObservers(dn_)) circuit_.scheduleSet(dn_, t_reset, false);
      if (circuit_.hasObservers(rst_)) circuit_.scheduleEvent(t_reset, handler_, 0);
    }
    if (!w.dn && w.value) sample(w.time);
  }
}

void PeakDetector::sample(double up_rise) {
  const double clk = up_rise + delays_.clock_delay_s;
  dn_late_.forget(clk);
  const bool q = !dn_late_.settled;
  // Unless an interceptor can act on MFREQ, its writes land in the order
  // scheduled: when this one lands MFREQ holds the last write's value, or
  // its level now if that write was dropped. At q both ways, it would
  // change nothing.
  if (q == last_write_ && q == circuit_.value(mfreq_) && !circuit_.interceptionPending(mfreq_))
    return;
  last_write_ = q;
  circuit_.scheduleSet(mfreq_, clk + delays_.latch_delay_s, q);
}

void PeakDetector::copyStateFrom(const PeakDetector& source) {
  monitor_ = source.monitor_;
  dn_late_ = source.dn_late_;
  last_write_ = source.last_write_;
}

}  // namespace pllbist::bist
