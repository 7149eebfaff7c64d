#pragma once

#include <cstdint>
#include <functional>

#include "sim/circuit.hpp"
#include "sim/primitives.hpp"

namespace pllbist::pll {
class Vco;
}  // namespace pllbist::pll

namespace pllbist::bist {

/// Gated frequency counter (Figure 6): counts rising edges of the VCO
/// output over a fixed gate interval and reports count / gate. The +/-1
/// count quantisation of the hardware is inherent in the integer count.
///
/// The count comes from the VCO's phase accumulator:
/// risingEdgesBy(close) - risingEdgesBy(open), the edges a gated counter on
/// the output would have seen. Nothing observes the VCO output, so it is
/// never materialised.
class FrequencyCounter : public sim::Component {
 public:
  FrequencyCounter(sim::Circuit& c, const pll::Vco& vco);

  struct Result {
    long count = 0;
    double gate_s = 0.0;
    [[nodiscard]] double frequencyHz() const { return static_cast<double>(count) / gate_s; }
  };

  /// Open the gate now for `gate_s` seconds; `done` fires when it closes.
  /// Only one measurement may be in flight.
  void measure(double gate_s, std::function<void(Result)> done);

  [[nodiscard]] bool busy() const { return busy_; }

  /// Forget the open gate, if any: its close is ignored and a new
  /// measurement may start at once.
  void abandon() {
    busy_ = false;
    ++gate_;
  }

  /// Fork support (see sim::Circuit::copyStateFrom): take `source`'s state.
  void copyStateFrom(const FrequencyCounter& source);

 private:
  sim::Circuit& circuit_;
  const pll::Vco& vco_;
  uint64_t edges_at_open_ = 0;  ///< vco_.risingEdgesBy(open)
  unsigned gate_ = 0;           ///< id of the latest gate; an abandoned close is stale
  bool busy_ = false;
};

/// Phase counter (Figure 6 / eqn (8)): measures the time from the stimulus
/// peak to the detected output peak in units of the test clock. Models a
/// binary counter clocked at `test_clock_hz`; the count returned is the
/// number of whole clock periods elapsed between arm() and capture(), which
/// is what the hardware register would hold.
class PhaseCounter {
 public:
  explicit PhaseCounter(double test_clock_hz);

  void arm(double now_s);
  [[nodiscard]] bool armed() const { return armed_; }

  /// Stop counting; returns the held count.
  long capture(double now_s);

  /// eqn (8): PhaseDelay(deg) = 360 * (T * N) / Tmod, negated because the
  /// output peak trails the stimulus peak (phase lag).
  [[nodiscard]] static double phaseDelayDeg(long count, double test_clock_hz,
                                            double modulation_hz);

  [[nodiscard]] double testClockHz() const { return test_clock_hz_; }

 private:
  double test_clock_hz_;
  double arm_time_ = 0.0;
  bool armed_ = false;
};

}  // namespace pllbist::bist
