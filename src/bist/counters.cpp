#include "bist/counters.hpp"

#include <cmath>
#include <stdexcept>

#include "common/assert.hpp"
#include "pll/vco.hpp"

namespace pllbist::bist {

FrequencyCounter::FrequencyCounter(sim::Circuit& c, const pll::Vco& vco)
    : circuit_(c), vco_(vco) {}

void FrequencyCounter::measure(double gate_s, std::function<void(Result)> done) {
  if (gate_s <= 0.0) throw std::invalid_argument("FrequencyCounter: gate must be positive");
  if (busy_) throw std::logic_error("FrequencyCounter: measurement already in flight");
  busy_ = true;
  edges_at_open_ = vco_.risingEdgesBy(circuit_.now());
  circuit_.scheduleCallback(circuit_.now() + gate_s,
                            [this, gate = ++gate_, gate_s, done = std::move(done)](double now) {
                              if (gate != gate_) return;
                              const auto count =
                                  static_cast<long>(vco_.risingEdgesBy(now) - edges_at_open_);
                              busy_ = false;
                              done(Result{count, gate_s});
                            });
}

void FrequencyCounter::copyStateFrom(const FrequencyCounter& source) {
  edges_at_open_ = source.edges_at_open_;
  gate_ = source.gate_;
  busy_ = source.busy_;
}

PhaseCounter::PhaseCounter(double test_clock_hz) : test_clock_hz_(test_clock_hz) {
  if (test_clock_hz <= 0.0) throw std::invalid_argument("PhaseCounter: clock must be positive");
}

void PhaseCounter::arm(double now_s) {
  arm_time_ = now_s;
  armed_ = true;
}

long PhaseCounter::capture(double now_s) {
  if (!armed_) throw std::logic_error("PhaseCounter: capture without arm");
  armed_ = false;
  PLLBIST_ASSERT(now_s >= arm_time_);
  // Whole test-clock periods elapsed — the register value of a counter
  // clocked at test_clock_hz and gated between the two events.
  return static_cast<long>(std::floor((now_s - arm_time_) * test_clock_hz_));
}

double PhaseCounter::phaseDelayDeg(long count, double test_clock_hz, double modulation_hz) {
  if (test_clock_hz <= 0.0 || modulation_hz <= 0.0)
    throw std::invalid_argument("phaseDelayDeg: rates must be positive");
  return -360.0 * (static_cast<double>(count) / test_clock_hz) * modulation_hz;
}

}  // namespace pllbist::bist
