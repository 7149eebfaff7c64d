#pragma once

#include <cstdint>

#include "sim/circuit.hpp"
#include "sim/primitives.hpp"

namespace pllbist::bist {

/// The mux-controlled stepped stimulus program (paper section 3, Figure 4):
/// each modulation period is divided into `steps` equal slots, the mux
/// selects the next slot's setting at every slot boundary, and a decode
/// pulses `peak_marker` once per period at the program's crest — the
/// instant the Table 2 sequence starts its phase counter from.
///
/// A subclass says only what a slot selects (select), what the stimulus
/// does while no program runs (idle), and where in the period the ideal
/// program crests. The marker fires there plus half a slot: the stepped
/// (zero-order-hold) program's fundamental lags the ideal one by half a
/// slot, and without the lag the phase plot carries a systematic
/// 180/steps-degree error.
class SlotProgram : public sim::Component, private sim::Circuit::Handler {
 public:
  /// Begin the program at `modulation_hz` from the current circuit time
  /// (slot 0 starts immediately). Replaces any running program.
  void start(double modulation_hz);

  /// End the program; the stimulus returns to its idle setting.
  void stop() { end(false); }

  /// End the program and hold the stimulus at its parked setting (for DC
  /// reference measurements).
  void park() { end(true); }

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] double modulationHz() const { return modulation_hz_; }

  /// Fork support (see sim::Circuit::copyStateFrom): take `source`'s
  /// program state, and a subclass's own (copyOwnStateFrom). What a
  /// subclass drives is either derived from the program or copied by the
  /// component it drives.
  void copyStateFrom(const SlotProgram& source) {
    modulation_hz_ = source.modulation_hz_;
    running_ = source.running_;
    generation_ = source.generation_;
    slot_ = source.slot_;
    copyOwnStateFrom(source);
  }

 protected:
  /// `crest_fraction`: where in the period the ideal program crests.
  SlotProgram(sim::Circuit& c, sim::SignalId peak_marker, int steps, double marker_pulse_s,
              double crest_fraction);

  /// The program slot the stimulus is currently set to.
  [[nodiscard]] int slot() const { return slot_; }

  /// Set the stimulus to slot `slot`'s setting (at its slot boundary).
  virtual void select(int slot) = 0;
  /// Set the stimulus to its setting while no program runs: the idle one,
  /// or the parked one.
  virtual void idle(bool parked) = 0;
  /// Fork support for state a subclass keeps beside the program; `source`
  /// is of the subclass's own type.
  virtual void copyOwnStateFrom(const SlotProgram& /*source*/) {}

 private:
  /// Slot boundaries (kind 0) and crest markers (kind 1), tagged with
  /// generationTag(generation_, kind): starting or stopping a program
  /// supersedes every event of the previous one.
  enum Kind : uint32_t { kSlot = 0, kMarker = 1 };
  bool onEvent(uint32_t tag, double now) override;
  void end(bool parked);
  void slotBoundary(double now, int slot);

  sim::Circuit& circuit_;
  sim::Circuit::HandlerId handler_;
  sim::SignalId peak_marker_;
  int steps_;
  double marker_pulse_s_;
  double crest_fraction_;
  double modulation_hz_ = 0.0;
  bool running_ = false;
  uint32_t generation_ = 0;  ///< invalidates scheduled slots of old programs
  int slot_ = 0;
};

}  // namespace pllbist::bist
