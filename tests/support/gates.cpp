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

Mux2::Mux2(sim::Circuit& c, sim::SignalId a, sim::SignalId b, sim::SignalId sel,
           sim::SignalId out, double delay_s) {
  requirePositiveDelay(delay_s);
  auto update = [&c, a, b, sel, out, delay_s](double now, bool) {
    c.scheduleSet(out, now + delay_s, c.value(sel) ? c.value(b) : c.value(a));
  };
  c.onChange(a, [&c, sel, out, delay_s](double now, bool v) {
    if (!c.value(sel)) c.scheduleSet(out, now + delay_s, v);
  });
  c.onChange(b, [&c, sel, out, delay_s](double now, bool v) {
    if (c.value(sel)) c.scheduleSet(out, now + delay_s, v);
  });
  c.onChange(sel, update);
  update(c.now(), false);
}

GatePfd::GatePfd(sim::Circuit& c, sim::SignalId ref, sim::SignalId fb, const pll::PfdDelays& d,
                 const std::string& prefix)
    : up(c.addSignal(prefix + ".up")),
      dn(c.addSignal(prefix + ".dn")),
      rst(c.addSignal(prefix + ".rst")),
      high(c.addSignal(prefix + ".high", true)),
      ff_up(c, ref, high, up, d.ff_clk_to_q_s, rst, d.ff_reset_to_q_s),
      ff_dn(c, fb, high, dn, d.ff_clk_to_q_s, rst, d.ff_reset_to_q_s),
      reset_and(c, up, dn, rst, d.and_delay_s) {}

NetVco::NetVco(sim::Circuit& c, sim::SignalId up, sim::SignalId dn, sim::SignalId out,
               sim::SignalId fb, const pll::PumpFilterConfig& filter, const pll::VcoConfig& vco,
               int n, double delay_s)
    : circuit_(c),
      handler_(c.addHandler(*this)),
      out_(out),
      fb_(fb),
      delay_(delay_s),
      filter_(filter, c.now()),
      vco_(vco, n, c.now()) {
  c.onChange(up, [this](double now, bool v) { driveChanged(false, v, now); });
  c.onChange(dn, [this](double now, bool v) { driveChanged(true, v, now); });
  c.scheduleEvent(vco_.nextEdgeTime(), handler_, generation_);
}

void NetVco::driveChanged(bool dn, bool on, double now) {
  filter_.drive(now, dn, on);
  if (!started_) return;
  vco_.driveChanged(now, filter_, circuit_.hasObservers(out_));
  aim();
}

void NetVco::aim() { circuit_.scheduleEvent(vco_.nextEdgeTime(), handler_, ++generation_); }

bool NetVco::onEvent(uint32_t tag, double now) {
  if (tag != generation_) return false;  // superseded by a drive change
  started_ = true;
  const bool observed = circuit_.hasObservers(out_);
  const pll::Vco::Edge e = vco_.fire(now, filter_, observed);
  if (observed) circuit_.scheduleSet(out_, now, e.rising);
  aim();
  if (e.fb_changes && fb_ != sim::kNoSignal) circuit_.scheduleSet(fb_, now + delay_, e.fb_rising);
  return true;
}

NetlistLoop::NetlistLoop(sim::Circuit& c, sim::SignalId stimulus, const pll::PllConfig& cfg)
    : idle_ref(c.addSignal("pll.ext_div")),
      test_mode(c.addSignal("pll.test_mode")),
      hold(c.addSignal("pll.hold")),
      pllref(c.addSignal("pll.pllref")),
      pfd_fb_in(c.addSignal("pll.pfd_fb_in")),
      vco_out(c.addSignal("pll.vco_out")),
      pllfb(c.addSignal("pll.pllfb")),
      input_mux(c, idle_ref, stimulus, test_mode, pllref, kMuxDelay),
      pfd(c, pllref, pfd_fb_in, cfg.pfd, "pll.pfd"),
      vco(c, pfd.up, pfd.dn, vco_out, pllfb, cfg.pump, cfg.vco, cfg.divider_n, kMuxDelay),
      hold_mux(c, pllfb, pllref, hold, pfd_fb_in, kMuxDelay) {
  c.setNow(test_mode, true);
}

PfdRun::PfdRun(const std::vector<double>& ref, const std::vector<double>& fb,
               const pll::PfdDelays& d, double end) {
  pll::Pfd pfd(d);
  bool both = false;
  // Apply the writes due by t, so few are pending at a time.
  auto applyUntil = [&](double t) {
    while (pfd.nextWriteTime() <= t) {
      pll::Pfd::Write w;
      bool changed = false;
      if (!pfd.applyNext(w, changed) || !changed) continue;
      Waveform& q = w.dn ? dn : up;
      (w.value ? q.rising : q.falling).push_back(w.time);
      if ((pfd.up() && pfd.dn()) == both) continue;
      both = !both;
      (both ? rst.rising : rst.falling).push_back(w.time + d.and_delay_s);
    }
  };
  std::size_t r = 0, f = 0;
  while (r < ref.size() || f < fb.size()) {
    const bool is_fb = r == ref.size() || (f < fb.size() && fb[f] < ref[r]);
    const double t = is_fb ? fb[f++] : ref[r++];
    applyUntil(t);
    pfd.clock(is_fb, t);
  }
  applyUntil(end);
}

}  // namespace pllbist::testing
