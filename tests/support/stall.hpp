#pragma once

#include <cstdint>
#include <stdexcept>

#include <gtest/gtest.h>

#include "sim/circuit.hpp"

namespace pllbist::testing {

/// Empties `c`'s queue: the circuit continues from an empty twin built the
/// same way (the same signals, as many handlers) at the same time and with
/// the same event counts, so only what is scheduled from now on runs and
/// the loop never runs again. Real benches never run their queue dry; a
/// test drains one to make a step loop stall. The twin's signals are at
/// their initial levels. Needs a circuit that dropped and delayed nothing.
inline void drainQueue(sim::Circuit& c) {
  ASSERT_EQ(c.droppedEventCount(), 0u);
  ASSERT_EQ(c.delayedEventCount(), 0u);
  struct Idle : sim::Circuit::Handler {
    bool onEvent(uint32_t, double) override { return false; }
  } idle;
  for (int handlers = 0; handlers < 64; ++handlers) {
    sim::Circuit twin;
    for (sim::SignalId s = 0; s < c.signalCount(); ++s) twin.addSignal(c.signalName(s));
    for (int h = 0; h < handlers; ++h) twin.addHandler(idle);
    for (uint64_t k = 0; k < c.deliveredEventCount(); ++k) twin.scheduleCallback(0.0, [](double) {});
    for (uint64_t k = 0; k < c.swallowedEventCount(); ++k) twin.scheduleSet(0, 0.0, false);
    twin.run(c.now());
    try {
      c.copyStateFrom(twin);
      return;
    } catch (const std::logic_error&) {
      // not as many handlers as `c`: try one more
    }
  }
  ADD_FAILURE() << "no twin has the circuit's handlers";
}

}  // namespace pllbist::testing
