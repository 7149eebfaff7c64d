#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bist/counters.hpp"
#include "bist/peak_detector.hpp"
#include "bist/stimulus_program.hpp"
#include "common/status.hpp"
#include "pll/cppll.hpp"
#include "sim/circuit.hpp"

namespace pllbist::bist {

/// The Table 2 test sequence, one modulation frequency at a time:
///
///  stage 1  apply digital modulation at FN, wait for the loop to settle
///  stage 2  at a stimulus peak, start the phase counter; at the next
///           detected output peak, capture it (repeated `average_periods`
///           times; the paper measured once, averaging is a knob)
///  stage 3  at the following output peak, assert loop hold — the output
///           frequency freezes at its maximum
///  stage 4  frequency-count the held output at leisure, then release
///  stage 5  caller moves to the next frequency
///
/// The sequencer sees only digital signals (the stimulus program's crest
/// marker, MFREQ, counter values) — no analog access, as the paper
/// requires.
class TestSequencer {
 public:
  struct Options {
    int settle_periods = 3;      ///< modulation periods to wait after retuning
    int average_periods = 4;     ///< phase-count repetitions
    double freq_gate_s = 1.0;    ///< held-output frequency-count gate
    double hold_to_gate_delay_s = 2e-3;  ///< mux settling before the gate opens
    double timeout_periods = 40.0;       ///< watchdog, in modulation periods
    /// Structured check; empty context on success.
    [[nodiscard]] Status check() const;
    /// check().throwIfError() — kept for the exception-based API.
    void validate() const;
  };

  struct PointResult {
    double modulation_hz = 0.0;
    double phase_deg = 0.0;             ///< circular mean of per-period phases
    std::vector<long> phase_counts;     ///< raw counter captures
    double held_frequency_hz = 0.0;     ///< gated count of the held output
    long held_count = 0;
    double gate_s = 0.0;
    double hold_time_s = 0.0;           ///< when hold engaged
    bool timed_out = false;             ///< watchdog fired (dead/deaf loop)
    /// Why the point failed (Timeout with the stage and deadline it died
    /// in); ok() for a clean measurement.
    Status status;
  };

  enum class Stage { Idle, Settle, PhaseMeasure, AwaitPeakForHold, HoldCount };

  /// The frequency counter counts the raw VCO output (for resolution),
  /// analytically, so nothing observes it. The phase counter starts at the
  /// program's crest markers.
  TestSequencer(sim::Circuit& c, pll::CpPll& pll, StimulusProgram& stimulus,
                PeakDetector& peak_detector, double test_clock_hz, Options options);

  TestSequencer(const TestSequencer&) = delete;
  TestSequencer& operator=(const TestSequencer&) = delete;

  /// Begin measuring one point; `done` fires (at circuit time) when stage 4
  /// completes or the watchdog trips. Only one point may be in flight; the
  /// modulation must be positive and finite (std::invalid_argument).
  void measurePoint(double modulation_hz, std::function<void(PointResult)> done);

  /// Unmodulated carrier measurement (the nominal-output reference the
  /// deviations are taken against). Stops any running stimulus program.
  void measureNominal(std::function<void(double hz)> done);

  /// DC in-band reference: park the reference at nominal + deviation, wait
  /// `settle_s`, then frequency-count the output. H(0) = 1, so the counted
  /// deviation is the eqn (7) Frefmax denominator with zero phase by
  /// definition — the paper's "referenced to the first measurement" rule
  /// made exact. Restores the unmodulated carrier afterwards.
  void measureStaticReference(double settle_s, std::function<void(double hz)> done);

  [[nodiscard]] Stage stage() const { return stage_; }
  [[nodiscard]] const Options& options() const { return options_; }

  /// Give up the point in flight, if any, without finishing it: hold is
  /// released, the frequency counter forgets its open gate, and the
  /// point's pending stage, watchdog and gate callbacks are ignored; `done`
  /// never fires. The sequencer is idle afterwards. No-op when idle.
  void abandon();

  /// Re-program the sequencer between points (the retry layer escalates
  /// settle/timeout/gate on each attempt). Throws std::logic_error when a
  /// point is in flight, std::invalid_argument on bad options.
  void setOptions(const Options& options);

  /// Fork support (see sim::Circuit::copyStateFrom): take `source`'s state,
  /// counters included. Throws std::logic_error when `source` has a point
  /// in flight.
  void copyStateFrom(const TestSequencer& source);

 private:
  void handleStimulusPeak(double now);
  void handleOutputPeak(double now);
  void handleMfreqRise(double now);
  void finish(double now);
  /// Stage transition + telemetry: closes the open stage span and opens the
  /// next one (sequencer.settle / .phase_measure / .await_peak /
  /// .hold_count) on the global obs::Tracer. Stages cross event callbacks,
  /// so these are manual begin/end spans, not RAII scopes.
  void enterStage(Stage stage);

  sim::Circuit& circuit_;
  pll::CpPll& pll_;
  StimulusProgram& stimulus_;
  FrequencyCounter freq_counter_;
  PhaseCounter phase_counter_;
  Options options_;

  Stage stage_ = Stage::Idle;
  uint64_t stage_span_ = 0;   ///< open tracer span of the current stage (0 = none)
  unsigned sequence_id_ = 0;  ///< invalidates stale watchdogs/callbacks
  PointResult current_;
  std::function<void(PointResult)> done_;
  bool waiting_for_output_peak_ = false;
  double mfreq_rise_time_ = -1.0;  ///< last MFREQ rising edge (for debounce)
};

}  // namespace pllbist::bist
