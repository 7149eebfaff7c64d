#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "common/assert.hpp"
#include "sim/circuit.hpp"

namespace pllbist::sim {

/// A clock-like source whose edges are decided ahead of their time: a
/// square wave, the Figure 4 DCO, a sine-FM generator or a delay line.
/// The source schedules no kernel event: the one component it feeds (its
/// puller: pll::CpPll's input mux, a delay line over a clock, or a
/// SourceDriver) asks for the source's next instant, runs it among its own
/// instants at its time (advance), and reads the level. An instant is an
/// output edge, or an earlier instant at which the source decides one (the
/// time it toggles a jittered carrier or samples a delay tap), so a
/// program change between the decision and the edge finds the edge where
/// it was decided. A puller claims the source when it is built (claim):
/// a second puller would run the same instants twice.
///
/// The source's output net is an observation tap. While the net has
/// observers (Circuit::hasObservers) or a fault rule or glitch names it
/// (Circuit::faultTarget), every edge is written to it at its time;
/// otherwise only its level is kept current (Circuit::setQuietly). While a
/// fault rule names the net, the puller hears the net (Circuit::listen) in
/// place of the pulled edges, so drops, delays and glitches reach it as
/// they reach a net-driven input.
class ReferenceSource {
 public:
  ReferenceSource(const ReferenceSource&) = delete;
  ReferenceSource& operator=(const ReferenceSource&) = delete;

  /// The next instant; +infinity when the source has none.
  /// Only advance() moves it (a program change takes effect at an instant
  /// still to come), so a puller may keep it between calls.
  [[nodiscard]] virtual double nextInstant() const = 0;
  /// Run the instant at nextInstant(), which is `now`. Returns true when
  /// the output changed at `now` (its new level is level()).
  virtual bool advance(double now) = 0;

  /// The output level after every edge advanced through.
  [[nodiscard]] bool level() const { return level_; }
  /// The decided output edge not made yet; +infinity when none is in
  /// flight.
  [[nodiscard]] double decidedEdge() const { return edge_at_; }
  [[nodiscard]] SignalId output() const { return out_; }

  /// The one-puller rule: the puller takes the source when it is built.
  /// Throws std::invalid_argument when a loop, a line or a driver already
  /// holds it.
  ReferenceSource& claim() {
    if (claimed_) throw std::invalid_argument("ReferenceSource: the source already has a puller");
    claimed_ = true;
    return *this;
  }

 protected:
  ReferenceSource(Circuit& c, SignalId out) : circuit_(c), out_(out), level_(c.value(out)) {}
  ~ReferenceSource() = default;

  /// The output changes to `v` at `now`, the circuit's time.
  void land(double now, bool v) {
    level_ = v;
    if (circuit_.hasObservers(out_) || circuit_.faultTarget(out_))
      circuit_.scheduleSet(out_, now, v);
    else
      circuit_.setQuietly(out_, v);
  }
  /// Decide the output's next edge, to `v` at `t`; one is in flight at a
  /// time.
  void decide(double t, bool v) {
    PLLBIST_ASSERT(edge_at_ == kNoEdge);
    edge_at_ = t;
    edge_level_ = v;
  }
  /// Make the decided edge, due at `now`.
  void landDecidedEdge(double now) {
    edge_at_ = kNoEdge;
    land(now, edge_level_);
  }
  /// Fork support: the level and the decided edge (the subclass copies the
  /// rest).
  void copySourceStateFrom(const ReferenceSource& source) {
    level_ = source.level_;
    edge_at_ = source.edge_at_;
    edge_level_ = source.edge_level_;
  }

 private:
  static constexpr double kNoEdge = std::numeric_limits<double>::infinity();

  Circuit& circuit_;
  SignalId out_;
  bool claimed_ = false;
  bool level_;
  double edge_at_ = kNoEdge;
  bool edge_level_ = false;
};

/// Drives a source onto its net with kernel events: the kernel is its
/// puller. Each instant is one handler event at the source's next instant,
/// so every edge is written to the net at its time, as the tests' net-heard
/// reference and the event-kernel benchmark need. An event whose instant
/// the source has since dropped (a stopped clock's) is swallowed. Holds no
/// state of its own: a fork carries its one pending event.
class SourceDriver : private Circuit::Handler {
 public:
  SourceDriver(Circuit& c, ReferenceSource& source)
      : circuit_(c), source_(source.claim()), handler_(c.addHandler(*this)) {
    schedule();
  }
  SourceDriver(const SourceDriver&) = delete;
  SourceDriver& operator=(const SourceDriver&) = delete;

 private:
  bool onEvent(uint32_t, double now) override {
    if (source_.nextInstant() != now) return false;
    source_.advance(now);
    schedule();
    return true;
  }
  void schedule() {
    const double t = source_.nextInstant();
    if (t < std::numeric_limits<double>::infinity()) circuit_.scheduleEvent(t, handler_, 0);
  }

  Circuit& circuit_;
  ReferenceSource& source_;
  Circuit::HandlerId handler_;
};

}  // namespace pllbist::sim
