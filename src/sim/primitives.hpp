#pragma once

#include <vector>

#include "sim/circuit.hpp"
#include "sim/reference_source.hpp"

namespace pllbist::sim {

/// Digital building blocks that the benches still wire as nets: clock
/// sources, a divider and an edge recorder (the gate-level PFD, mux and
/// counter oracles live with the tests). Every
/// primitive registers callbacks (self-scheduling sources: a
/// Circuit::Handler) on construction; instances must therefore outlive the
/// Circuit's run and are pinned in memory (non-copyable, non-movable).
class Component {
 public:
  Component() = default;
  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;
  virtual ~Component() = default;
};

/// out = !in after `delay_s` (transport delay; delay must be > 0).
class Inverter : public Component {
 public:
  Inverter(Circuit& c, SignalId in, SignalId out, double delay_s);
};

/// Free-running square-wave source: toggles its output with the given
/// period starting at start_time. stop() freezes the output. Pulled (see
/// ReferenceSource), each toggle is an instant of its puller; a stopped
/// clock's pending instant passes without an edge.
class ClockSource : public Component, public ReferenceSource, private Circuit::Handler {
 public:
  ClockSource(Circuit& c, SignalId out, double period_s, double start_time_s = 0.0,
              SourceMode mode = SourceMode::Drive);
  void stop() { running_ = false; }
  [[nodiscard]] double period() const { return period_; }
  /// Fork support (see Circuit::copyStateFrom): take `source`'s state.
  void copyStateFrom(const ClockSource& source) {
    running_ = source.running_;
    next_ = source.next_;
    copySourceStateFrom(source);
  }

  [[nodiscard]] double nextInstant() const override;
  bool advance(double now) override;

 private:
  /// Every event is the next half-period toggle (the tag is unused).
  bool onEvent(uint32_t tag, double now) override;
  Circuit& circuit_;
  Circuit::HandlerId handler_;
  SignalId out_;
  double period_;
  double next_;  ///< the next toggle of a pulled clock
  bool running_ = true;
};

/// Divide-by-N pulse divider for the PLL feedback/reference paths: the
/// output rises every N input rising edges and falls floor(N/2) edges later,
/// so rising-edge spacing (all a PFD sees) is exactly N input periods.
class DivideByN : public Component {
 public:
  DivideByN(Circuit& c, SignalId in, SignalId out, int n, double delay_s);
  [[nodiscard]] int n() const { return n_; }
  /// Fork support (see Circuit::copyStateFrom): take `source`'s state.
  void copyStateFrom(const DivideByN& source) { count_ = source.count_; }

 private:
  Circuit& circuit_;
  SignalId out_;
  double delay_;
  int n_;
  int count_ = 0;
};

/// Records rising/falling edge timestamps of a signal for offline analysis.
class EdgeRecorder : public Component {
 public:
  EdgeRecorder(Circuit& c, SignalId in);
  [[nodiscard]] const std::vector<double>& risingEdges() const { return rising_; }
  [[nodiscard]] const std::vector<double>& fallingEdges() const { return falling_; }
  void clear() { rising_.clear(); falling_.clear(); }

 private:
  std::vector<double> rising_;
  std::vector<double> falling_;
};

}  // namespace pllbist::sim
