#pragma once

#include <cstdint>

#include "sim/circuit.hpp"
#include "sim/primitives.hpp"

namespace pllbist::bist {

/// A stimulus program: what steps the source the loop pulls (paper section
/// 3: Figure 4's mux-programmed DCO, or the Figure 3 bench FM generator as
/// the ideal case). It starts at a modulation frequency, stops back to the
/// idle carrier or parks at the crest setting, and pulses `peak_marker`
/// once per period at its crest: the "known stimulus peak" the Table 2
/// sequence starts its phase counter from. The step and marker events a
/// subclass schedules carry the program's generation, so starting or
/// stopping a program supersedes every event of the previous one.
class StimulusProgram : public sim::Component, private sim::Circuit::Handler {
 public:
  /// Begin the program at `modulation_hz` (positive and finite, or
  /// std::invalid_argument) from the current circuit time, replacing any
  /// running program.
  void start(double modulation_hz);

  /// End the program; the stimulus returns to its idle setting.
  void stop() { end(false); }
  /// End the program and hold the stimulus at its parked setting (for DC
  /// reference measurements).
  void park() { end(true); }

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] double modulationHz() const { return modulation_hz_; }
  /// The net the crest marker pulses on.
  [[nodiscard]] sim::SignalId peakMarker() const { return peak_marker_; }

  /// Fork support (see sim::Circuit::copyStateFrom): take `source`'s
  /// program state and a subclass's own (copyOwnStateFrom); the source a
  /// program drives copies its own.
  void copyStateFrom(const StimulusProgram& source) {
    modulation_hz_ = source.modulation_hz_;
    running_ = source.running_;
    generation_ = source.generation_;
    copyOwnStateFrom(source);
  }

 protected:
  StimulusProgram(sim::Circuit& c, sim::SignalId peak_marker, double marker_pulse_s);

  /// Set the stimulus to the program's start at `now` and schedule its
  /// first marker (scheduleMarker) and step (scheduleStep).
  virtual void begin(double now) = 0;
  /// A scheduled step, or the crest marker's pulse, falls due at `now`.
  virtual void step(double /*now*/) {}
  virtual void crested(double /*now*/) {}
  /// Set the stimulus to its setting while no program runs: the idle one,
  /// or the parked one.
  virtual void idle(bool parked) = 0;
  /// Fork support for state a subclass keeps beside the program; `source`
  /// is of the subclass's own type.
  virtual void copyOwnStateFrom(const StimulusProgram& /*source*/) {}

  void scheduleMarker(double t) { scheduleOwn(t, kMarker); }
  void scheduleStep(double t) { scheduleOwn(t, kStep); }

 private:
  /// Steps (kind 0) and crest markers (kind 1), tagged with
  /// generationTag(generation_, kind).
  enum Kind : uint32_t { kStep = 0, kMarker = 1 };
  bool onEvent(uint32_t tag, double now) override;
  void end(bool parked);
  void scheduleOwn(double t, Kind kind) {
    circuit_.scheduleEvent(t, handler_, generationTag(generation_, kind));
  }

  sim::Circuit& circuit_;
  sim::Circuit::HandlerId handler_;
  sim::SignalId peak_marker_;
  double marker_pulse_s_;
  double modulation_hz_ = 0.0;
  bool running_ = false;
  uint32_t generation_ = 0;  ///< invalidates scheduled events of old programs
};

/// The mux-controlled stepped program (paper section 3, Figure 4): each
/// modulation period is divided into `steps` equal slots, and the mux
/// selects the next slot's setting at every slot boundary. A subclass says
/// only what a slot selects (select), what the stimulus does while no
/// program runs (idle), and where in the period the ideal program crests.
/// The marker fires there plus half a slot: the stepped (zero-order-hold)
/// program's fundamental lags the ideal one by half a slot, and without
/// the lag the phase plot carries a systematic 180/steps-degree error.
class SlotProgram : public StimulusProgram {
 protected:
  /// `crest_fraction`: where in the period the ideal program crests.
  SlotProgram(sim::Circuit& c, sim::SignalId peak_marker, int steps, double marker_pulse_s,
              double crest_fraction)
      : StimulusProgram(c, peak_marker, marker_pulse_s),
        steps_(steps),
        crest_fraction_(crest_fraction) {}

  /// The program slot the stimulus is currently set to.
  [[nodiscard]] int slot() const { return slot_; }

  /// Set the stimulus to slot `slot`'s setting (at its slot boundary).
  virtual void select(int slot) = 0;
  void copyOwnStateFrom(const StimulusProgram& source) override {
    slot_ = static_cast<const SlotProgram&>(source).slot_;
  }

 private:
  void begin(double now) override { slotBoundary(now, 0); }
  void step(double now) override { slotBoundary(now, (slot_ + 1) % steps_); }
  void slotBoundary(double now, int slot);

  int steps_;
  double crest_fraction_;
  int slot_ = 0;
};

}  // namespace pllbist::bist
