#pragma once

#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "sim/circuit.hpp"
#include "sim/primitives.hpp"

namespace pllbist::sim {

/// Deterministic, seeded, replayable fault injection at the event-kernel
/// level. Installs itself as the Circuit's event interceptor and applies a
/// rule list to scheduled signal transitions:
///
///   - dropEdges     each transition in a time window is swallowed with
///                   probability p (a missed MAXFREQ edge, a deaf counter)
///   - delayEdges    each transition is postponed by a uniform random
///                   amount (marginal timing paths, metastability)
///   - stickSignal   every transition in a window is dropped — the signal
///                   is stuck at whatever value it held when the window
///                   opened (stuck counters, dead peak detector)
///   - injectGlitch / injectGlitchStorm
///                   spurious invert-then-restore pulses are forced onto a
///                   signal (PFD dead-zone glitch storms, noise coupling)
///
/// All randomness comes from one std::mt19937_64 advanced only when a rule
/// matches, so a given (seed, rules, workload) triple replays bit-exactly —
/// a hard requirement for debugging a failure the campaign found.
///
/// Each rule and glitch marks the net it names (Circuit::markFaultTarget),
/// and the interceptor sees only marked nets' transitions. Rules act on
/// scheduled transitions, so they only touch signals that are written.
/// Some nets are observation taps, written only while they have observers:
/// a PLL's loop nets (pll::CpPll: PLLREF, PLLFB, the PFD's feedback input,
/// UP, DN, the PFD reset and the VCO output) and the peak detector's
/// monitor UP/DN/reset (bist::PeakDetector). A rule on such a tap reaches
/// it only while it is observed, and then reaches those observers but not
/// the component that owns the tap. A pulled reference source's net (the
/// bench's stimulus; sim::ReferenceSource) is a tap too, but the mark makes
/// its source write it and its puller hear it, so a rule on the stimulus
/// reaches the loop as on a net-driven stimulus. The hold/test-mode
/// selects are ordinary nets.
///
/// Only one FaultInjector may be installed per Circuit at a time, and it
/// must outlive all circuit activity (it does not unregister pending glitch
/// callbacks). Destroying it uninstalls the interceptor.
class FaultInjector : public Component {
 public:
  static constexpr double kForever = std::numeric_limits<double>::infinity();

  struct Stats {
    uint64_t considered = 0;  ///< transitions examined against >= 1 rule
    uint64_t dropped = 0;
    uint64_t delayed = 0;
    uint64_t glitches = 0;  ///< spurious pulses actually forced
  };

  explicit FaultInjector(Circuit& c, uint64_t seed = 1);
  ~FaultInjector() override;

  /// Drop each transition of `id` with `probability` while now is in
  /// [from_s, until_s).
  void dropEdges(SignalId id, double probability, double from_s = 0.0, double until_s = kForever);

  /// Postpone each transition of `id` with `probability` by a uniform
  /// random delay in [min_delay_s, max_delay_s]. A delayed event is
  /// delivered unconditionally at the postponed time — the kernel marks it
  /// already-intercepted, so it cannot be delayed again or dropped by
  /// another rule. (It used to be re-examined, which let a persistent
  /// delay rule chase its own re-enqueues forever and double-count the
  /// delayed/dropped statistics.)
  void delayEdges(SignalId id, double probability, double min_delay_s, double max_delay_s,
                  double from_s = 0.0, double until_s = kForever);

  /// Drop every transition of `id` in [from_s, until_s): the signal is
  /// stuck at its value as of the window opening.
  void stickSignal(SignalId id, double from_s, double until_s = kForever);

  /// Force one spurious pulse: at time t the signal is inverted, at
  /// t + width_s it is restored to its pre-glitch value. Transitions the
  /// DUT legitimately scheduled inside the pulse are overwritten — that is
  /// the point.
  void injectGlitch(SignalId id, double t, double width_s);

  /// A storm of glitches on [t0_s, t1_s): pulse start times follow an
  /// exponential inter-arrival law with the given mean (Poisson process,
  /// deterministic per seed).
  void injectGlitchStorm(SignalId id, double t0_s, double t1_s, double mean_interval_s,
                         double width_s);

  /// Remove all drop/delay/stick rules. Pending glitch events already in
  /// the queue still fire; the rule list starts empty again.
  void clearRules();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] uint64_t seed() const { return seed_; }

 private:
  struct Rule {
    enum class Op { Drop, Delay, Stick };
    SignalId id = kNoSignal;
    Op op = Op::Drop;
    double probability = 1.0;
    double delay_min_s = 0.0;
    double delay_max_s = 0.0;
    double from_s = 0.0;
    double until_s = kForever;
  };

  Circuit::InterceptVerdict intercept(SignalId id, double now, bool value);
  void scheduleStormPulse(SignalId id, double t, double t1_s, double mean_interval_s,
                          double width_s);
  /// Uniform in [0, 1) from the raw engine — bit-identical on every
  /// platform, unlike std::uniform_real_distribution.
  double uniform01();

  Circuit& circuit_;
  uint64_t seed_;
  std::mt19937_64 rng_;
  std::vector<Rule> rules_;
  Stats stats_;
};

}  // namespace pllbist::sim
