#include "pll/cppll.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace pllbist::pll {

namespace {
constexpr double kMuxDelay = 1e-9;  ///< M1, M2 and the feedback divider
constexpr double kNever = std::numeric_limits<double>::infinity();

const PllConfig& validated(const PllConfig& cfg) {
  cfg.validate();
  return cfg;
}
}  // namespace

CpPll::CpPll(sim::Circuit& c, sim::SignalId test_stimulus, const PllConfig& cfg,
             const std::string& prefix)
    : circuit_(c),
      cfg_(validated(cfg)),
      handler_(c.addHandler(*this)),
      test_stimulus_(test_stimulus),
      test_mode_sel_(c.addSignal(prefix + ".test_mode")),
      hold_sel_(c.addSignal(prefix + ".hold")),
      pllref_(c.addSignal(prefix + ".pllref")),
      pfd_fb_in_(c.addSignal(prefix + ".pfd_fb_in")),
      vco_out_(c.addSignal(prefix + ".vco_out")),
      pllfb_(c.addSignal(prefix + ".pllfb")),
      // Reference divider on the normal (external) input path only; the
      // test stimulus already runs at the PFD rate.
      divided_ext_ref_(c.addSignal(prefix + ".ext_div")),
      up_(c.addSignal(prefix + ".pfd.up")),
      dn_(c.addSignal(prefix + ".pfd.dn")),
      rst_(c.addSignal(prefix + ".pfd.rst")),
      pfd_(cfg.pfd),
      filter_(cfg.pump, c.now()),
      vco_(cfg.vco, cfg.divider_n, c.now()),
      pending_(vco_.nextEdgeTime()) {
  c.onChange(test_mode_sel_, [this](double now, bool test_mode) {
    refWrite(now + kMuxDelay, inputLevel(test_mode));
    aim();
  });
  c.onChange(hold_sel_, [this](double now, bool hold) { holdChanged(now, hold); });
  // M1: the selected input, one mux delay late.
  c.onChange(divided_ext_ref_, [this](double now, bool v) { heard(false, now, v); });
}

CpPll::CpPll(sim::Circuit& c, sim::SignalId external_ref, sim::SignalId test_stimulus,
             const PllConfig& cfg, const std::string& prefix)
    : CpPll(c, test_stimulus, cfg, prefix) {
  ref_divider_ = std::make_unique<sim::DivideByN>(c, external_ref, divided_ext_ref_,
                                                  cfg.ref_divider_r, kMuxDelay);
  c.onChange(test_stimulus_, [this](double now, bool v) { heard(true, now, v); });
  circuit_.scheduleEvent(pending_, handler_, 0);
}

CpPll::CpPll(sim::Circuit& c, sim::ReferenceSource& test_stimulus, const PllConfig& cfg,
             const std::string& prefix)
    : CpPll(c, test_stimulus.output(), cfg, prefix) {
  if (test_stimulus.mode() != sim::SourceMode::Pulled)
    throw std::invalid_argument("CpPll: the test stimulus must be a pulled source");
  test_source_ = &test_stimulus;
  // M1 hears the stimulus net only while a fault rule names it; otherwise
  // it takes the edges it pulls (advanceStimulus).
  c.listen(test_stimulus_, [this](double now, bool v) {
    if (circuit_.faultTarget(test_stimulus_)) heard(true, now, v);
  });
  stimulus_next_ = test_stimulus.nextInstant();
  pending_ = nextInstant();
  circuit_.scheduleEvent(pending_, handler_, 0);
}

void CpPll::setTestMode(bool enabled) { circuit_.setNow(test_mode_sel_, enabled); }

void CpPll::setHold(bool enabled) { circuit_.setNow(hold_sel_, enabled); }

bool CpPll::holdAsserted() const { return circuit_.value(hold_sel_); }

void CpPll::heard(bool test, double now, bool v) {
  if (circuit_.value(test_mode_sel_) != test) return;
  refWrite(now + kMuxDelay, v);
  aim();
}

void CpPll::refWrite(double x, bool v) {
  if (observed(pllref_)) circuit_.scheduleSet(pllref_, x, v);
  ref_net_.forget(circuit_.now());
  if (v == ref_net_.last()) return;
  ref_net_.changes.push_back({x, v});
  if (v) {
    pfd_.clock(false, x);
    for (LoopTap* tap : taps_) tap->inputRose(false, x);
  }
  if (circuit_.value(hold_sel_)) fbInWrite(x + kMuxDelay, v);
}

void CpPll::fbWrite(double x, bool v) {
  if (observed(pllfb_)) circuit_.scheduleSet(pllfb_, x, v);
  fb_net_.forget(circuit_.now());
  if (v == fb_net_.last()) return;
  fb_net_.changes.push_back({x, v});
  if (!circuit_.value(hold_sel_)) fbInWrite(x + kMuxDelay, v);
  if (v)
    for (LoopTap* tap : taps_) tap->inputRose(true, x);
}

void CpPll::fbInWrite(double y, bool v) {
  if (observed(pfd_fb_in_)) circuit_.scheduleSet(pfd_fb_in_, y, v);
  fb_in_net_.forget(circuit_.now());
  if (v == fb_in_net_.last()) return;
  fb_in_net_.changes.push_back({y, v});
  if (v) pfd_.clock(true, y);
}

void CpPll::holdChanged(double now, bool hold) {
  // M2 decided its output for input changes after `now` with the old
  // select: take those decisions back, re-drive the output from the newly
  // selected input's level, then pass on that input's later changes.
  const double y = now + kMuxDelay;
  std::erase_if(fb_in_net_.changes, [y](const TimedNet::Change& c) { return c.time > y; });
  pfd_.unclockFbAfter(y);
  const TimedNet& selected = hold ? ref_net_ : fb_net_;
  fbInWrite(y, selected.at(now));
  for (const TimedNet::Change& c : selected.changes)
    if (c.time > now) fbInWrite(c.time + kMuxDelay, c.value);
  aim();
}

bool CpPll::onEvent(uint32_t, double now) {
  pending_ = kNever;
  bool did_work = false;
  bool hand_back = false;
  for (;;) {
    if (pfd_.nextWriteTime() <= now) {
      did_work = applyPfdWrite(now, hand_back) || did_work;
    } else if (vco_.nextEdgeTime() <= now) {
      fireVco(now);
      did_work = true;
    } else if (advanceStimulus(now)) {
      did_work = true;
    } else {
      // Every instant up to now is done: run ahead to the next one while
      // nothing queued comes first or ties it.
      const double next = nextInstant();
      if (hand_back || !(next < circuit_.horizon())) break;
      circuit_.runAheadTo(next);
      now = next;
    }
  }
  aim();
  return did_work;
}

double CpPll::nextInstant() const {
  return std::min({pfd_.nextWriteTime(), vco_.nextEdgeTime(), stimulus_next_});
}

bool CpPll::advanceStimulus(double now) {
  // Only a pulled stimulus has an instant (stimulus_next_ is +infinity
  // otherwise).
  if (!(stimulus_next_ <= now)) return false;
  // M1 passes the stimulus's edge while it selects it, unless a fault rule
  // names the stimulus net: then it hears the net's write instead.
  if (test_source_->advance(now) && !circuit_.faultTarget(test_stimulus_) &&
      circuit_.value(test_mode_sel_))
    refWrite(now + kMuxDelay, test_source_->level());
  stimulus_next_ = test_source_->nextInstant();
  return true;
}

bool CpPll::inputLevel(bool test) const {
  if (test && test_source_ && !circuit_.faultTarget(test_stimulus_)) return test_source_->level();
  return circuit_.value(test ? test_stimulus_ : divided_ext_ref_);
}

void CpPll::aim() {
  const double next = nextInstant();
  if (next == pending_) return;
  if (pending_ == kNever)
    circuit_.scheduleEvent(next, handler_, 0);
  else
    circuit_.rescheduleEvent(next, handler_, 0);
  pending_ = next;
}

bool CpPll::applyPfdWrite(double now, bool& hand_back) {
  Pfd::Write w;
  bool changed = false;
  if (!pfd_.applyNext(w, changed)) return false;
  ++pfd_writes_;
  const sim::SignalId q = w.dn ? dn_ : up_;
  if (observed(q)) circuit_.scheduleSet(q, now, w.value);
  if (!changed) return true;
  if (observed(rst_))
    circuit_.scheduleSet(rst_, now + cfg_.pfd.and_delay_s, pfd_.up() && pfd_.dn());
  filter_.drive(now, w.dn, w.value);
  vco_.driveChanged(now, filter_, observed(vco_out_));
  for (LoopTap* tap : taps_) hand_back = tap->pumpChanged(w.dn, w.value, now) || hand_back;
  return true;
}

void CpPll::fireVco(double now) {
  ++vco_stops_;
  const bool watched = observed(vco_out_);
  const Vco::Edge e = vco_.fire(now, filter_, watched);
  if (watched) circuit_.scheduleSet(vco_out_, now, e.rising);
  if (e.fb_changes) fbWrite(now + kMuxDelay, e.fb_rising);
}

void CpPll::copyStateFrom(const CpPll& source) {
  if (ref_divider_) ref_divider_->copyStateFrom(*source.ref_divider_);
  pfd_ = source.pfd_;
  filter_ = source.filter_;
  vco_ = source.vco_;
  ref_net_ = source.ref_net_;
  fb_net_ = source.fb_net_;
  fb_in_net_ = source.fb_in_net_;
  pending_ = source.pending_;
  stimulus_next_ = source.stimulus_next_;
  pfd_writes_ = source.pfd_writes_;
  vco_stops_ = source.vco_stops_;
}

double CpPll::controlVoltageNow() { return filter_.controlVoltage(circuit_.now()); }

double CpPll::vcoFrequencyNowHz() {
  return cfg_.vco.frequencyAt(filter_.controlVoltage(circuit_.now()));
}

}  // namespace pllbist::pll
