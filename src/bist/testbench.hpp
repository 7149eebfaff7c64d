#pragma once

#include <memory>

#include "bist/sweep_types.hpp"
#include "bist/dco.hpp"
#include "bist/delay_line.hpp"
#include "bist/modulator.hpp"
#include "bist/peak_detector.hpp"
#include "bist/sequencer.hpp"
#include "pll/config.hpp"
#include "pll/cppll.hpp"
#include "pll/probes.hpp"
#include "pll/sources.hpp"
#include "sim/circuit.hpp"
#include "sim/fault_injector.hpp"

namespace pllbist::bist {

/// The fully assembled Figure 6 testbench: a private Circuit holding the
/// stimulus path for the selected StimulusKind, the device under test with
/// its M1/M2 test muxes, the peak detector, the Table 2 sequencer, and a
/// lock detector on the in-loop PFD outputs.
///
/// Kept apart from ResilientSweep so the sweep *policy* is separate from the
/// bench *construction*, and so tests can reach into the circuit — attach a
/// sim::FaultInjector, drop MAXFREQ edges, storm the reference — before any
/// measurement starts. Non-copyable, non-movable: components capture
/// `this`-stable references into circuit callbacks. A bench is forked
/// instead: build a second one the same way, then copyStateFrom().
class SweepTestbench {
 public:
  /// The lock detector uses the conventional threshold (2% of the
  /// reference period) and LockDetector's default of 8 quiet pulses (four
  /// reference cycles).
  SweepTestbench(const pll::PllConfig& config, const SweepOptions& options);

  SweepTestbench(const SweepTestbench&) = delete;
  SweepTestbench& operator=(const SweepTestbench&) = delete;

  [[nodiscard]] sim::Circuit& circuit() { return circuit_; }
  [[nodiscard]] const sim::Circuit& circuit() const { return circuit_; }
  [[nodiscard]] pll::CpPll& pll() { return *pll_; }
  [[nodiscard]] const pll::CpPll& pll() const { return *pll_; }
  [[nodiscard]] TestSequencer& sequencer() { return *sequencer_; }
  [[nodiscard]] PeakDetector& peakDetector() { return *peak_detector_; }
  [[nodiscard]] pll::LockDetector& lockDetector() { return *lock_; }

  /// Lazily created, owned fault injector on this bench's circuit (one per
  /// circuit; the seed only applies to the first call).
  sim::FaultInjector& faultInjector(uint64_t seed = 1);

  /// The injector created by faultInjector(), or nullptr when none was ever
  /// attached. Telemetry reads the fault statistics through this without
  /// accidentally instantiating an injector.
  [[nodiscard]] const sim::FaultInjector* installedFaultInjector() const {
    return injector_.get();
  }

  [[nodiscard]] sim::SignalId stimulusOut() const { return stim_out_; }
  [[nodiscard]] sim::SignalId stimulusMarker() const { return stim_marker_; }
  /// The peak detector's MFREQ net (its falling edge is the MAXFREQ event).
  [[nodiscard]] sim::SignalId mfreq() const;

  /// Phase deviation of the delay-line PM stimulus; 0 for FM kinds.
  [[nodiscard]] double pmThetaDevRad() const { return pm_theta_dev_rad_; }

  [[nodiscard]] const pll::PllConfig& config() const { return config_; }
  [[nodiscard]] const SweepOptions& options() const { return options_; }

  /// Park the stimulus back at the unmodulated nominal carrier (between
  /// points, before relock waits).
  void stopStimulus() { program_->stop(); }

  /// Fork: continue from `source`'s simulated state — the circuit's queue,
  /// time and signal values and every component's state — as if this bench
  /// had run `source`'s history itself. Both benches must be built from the
  /// same configuration and options; only the modulation frequencies and
  /// the jitter seed may differ, and a pure-sine source restarts its jitter
  /// stream from this bench's seed. Throws std::logic_error when `source`
  /// has a point in flight, a pending closure, a fault injector, or a
  /// different structure.
  void copyStateFrom(const SweepTestbench& source);

 private:
  pll::PllConfig config_;
  SweepOptions options_;
  sim::Circuit circuit_;
  sim::SignalId stim_out_;
  sim::SignalId stim_marker_;

  // Stimulus sources (only the selected kind's are populated).
  std::unique_ptr<Dco> dco_;
  std::unique_ptr<pll::SineFmSource> sine_source_;
  std::unique_ptr<sim::ClockSource> pm_clock_;
  /// The program of every kind: FskModulator on the DCO, SineFmProgram on
  /// the sine source, or DelayLineModulator behind the PM clock.
  std::unique_ptr<StimulusProgram> program_;
  double pm_theta_dev_rad_ = 0.0;

  std::unique_ptr<pll::CpPll> pll_;
  std::unique_ptr<PeakDetector> peak_detector_;
  std::unique_ptr<pll::LockDetector> lock_;
  std::unique_ptr<TestSequencer> sequencer_;
  // Declared last: destroyed first, so it detaches its interceptor while
  // the circuit is still alive.
  std::unique_ptr<sim::FaultInjector> injector_;
};

}  // namespace pllbist::bist
