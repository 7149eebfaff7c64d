#include "sim/primitives.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/assert.hpp"

namespace pllbist::sim {

namespace {
void requirePositiveDelay(double delay_s) {
  if (delay_s <= 0.0)
    throw std::invalid_argument("sim primitive: delay must be positive (zero-delay loops hang)");
}
}  // namespace

Inverter::Inverter(Circuit& c, SignalId in, SignalId out, double delay_s) {
  requirePositiveDelay(delay_s);
  c.onChange(in, [&c, out, delay_s](double now, bool v) { c.scheduleSet(out, now + delay_s, !v); });
  c.scheduleSet(out, c.now() + delay_s, !c.value(in));
}

ClockSource::ClockSource(Circuit& c, SignalId out, double period_s, double start_time_s,
                         SourceMode mode)
    : ReferenceSource(c, out, mode),
      circuit_(c),
      handler_(c.addHandler(*this)),
      out_(out),
      period_(period_s),
      next_(start_time_s) {
  if (period_s <= 0.0) throw std::invalid_argument("ClockSource: period must be positive");
  PLLBIST_ASSERT(start_time_s >= c.now());
  if (mode == SourceMode::Drive) circuit_.scheduleEvent(start_time_s, handler_, 0);
}

bool ClockSource::onEvent(uint32_t, double now) {
  if (!running_) return false;
  circuit_.scheduleSet(out_, now, !circuit_.value(out_));
  circuit_.scheduleEvent(now + period_ / 2.0, handler_, 0);
  return true;
}

double ClockSource::nextInstant() const {
  return running_ ? next_ : std::numeric_limits<double>::infinity();
}

bool ClockSource::advance(double now) {
  if (!running_) return false;
  land(now, !level());
  next_ = now + period_ / 2.0;
  return true;
}

DivideByN::DivideByN(Circuit& c, SignalId in, SignalId out, int n, double delay_s)
    : circuit_(c), out_(out), delay_(delay_s), n_(n) {
  requirePositiveDelay(delay_s);
  if (n < 1) throw std::invalid_argument("DivideByN: n must be >= 1");
  if (n == 1) {
    // Pass-through: mirror both edges so downstream blocks see the input.
    c.onChange(in, [this](double now, bool v) { circuit_.scheduleSet(out_, now + delay_, v); });
    return;
  }
  c.onRisingEdge(in, [this](double now) {
    if (count_ == 0) circuit_.scheduleSet(out_, now + delay_, true);
    if (count_ == std::max(1, n_ / 2)) circuit_.scheduleSet(out_, now + delay_, false);
    if (++count_ >= n_) count_ = 0;
  });
}

EdgeRecorder::EdgeRecorder(Circuit& c, SignalId in) {
  c.onChange(in, [this](double now, bool v) {
    if (v)
      rising_.push_back(now);
    else
      falling_.push_back(now);
  });
}

}  // namespace pllbist::sim
