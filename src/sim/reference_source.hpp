#pragma once

#include <limits>

#include "common/assert.hpp"
#include "sim/circuit.hpp"

namespace pllbist::sim {

/// How a reference source reaches the component it feeds.
enum class SourceMode {
  Drive,   ///< it writes its output net with kernel events of its own
  Pulled,  ///< the component it feeds runs its instants (see ReferenceSource)
};

/// A clock-like source whose edges are decided ahead of their time: a
/// square wave, the Figure 4 DCO, a sine-FM generator or a delay line.
/// Built in SourceMode::Pulled, the source schedules no kernel event: the
/// one component it feeds (its puller: pll::CpPll's input mux, or a delay
/// line over a clock) asks for the source's next instant, runs it among
/// its own instants at its time (advance), and reads the level. An instant
/// is an output edge, or an earlier instant at which the source decides
/// one (the time it toggles a jittered carrier or samples a delay tap), so
/// a program change between the decision and the edge finds the edge as
/// the kernel-driven source would.
///
/// A pulled source's output net is an observation tap. While the net has
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

  /// The next instant of a pulled source; +infinity when it has none.
  /// Only advance() moves it (a program change takes effect at an instant
  /// still to come), so a puller may keep it between calls.
  [[nodiscard]] virtual double nextInstant() const = 0;
  /// Run the instant at nextInstant(), which is `now`. Returns true when
  /// the output changed at `now` (its new level is level()).
  virtual bool advance(double now) = 0;

  /// The output level after every edge advanced through.
  [[nodiscard]] bool level() const { return level_; }
  /// A pulled source's decided output edge not made yet; +infinity when
  /// none is in flight.
  [[nodiscard]] double decidedEdge() const { return edge_at_; }
  [[nodiscard]] SignalId output() const { return out_; }
  [[nodiscard]] SourceMode mode() const { return mode_; }

 protected:
  ReferenceSource(Circuit& c, SignalId out, SourceMode mode)
      : circuit_(c), out_(out), mode_(mode), level_(c.value(out)) {}
  ~ReferenceSource() = default;

  /// A pulled source's output changes to `v` at `now`, the circuit's time.
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
  SourceMode mode_;
  bool level_;
  double edge_at_ = kNoEdge;
  bool edge_level_ = false;
};

}  // namespace pllbist::sim
