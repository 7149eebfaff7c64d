#include "sim/fault_injector.hpp"

#include <cmath>
#include <stdexcept>

#include "common/assert.hpp"

namespace pllbist::sim {

FaultInjector::FaultInjector(Circuit& c, uint64_t seed) : circuit_(c), seed_(seed), rng_(seed) {
  if (c.hasEventInterceptor())
    throw std::logic_error("FaultInjector: circuit already has an event interceptor");
  c.setEventInterceptor(
      [this](SignalId id, double now, bool value) { return intercept(id, now, value); });
}

FaultInjector::~FaultInjector() { circuit_.setEventInterceptor(nullptr); }

double FaultInjector::uniform01() {
  return static_cast<double>(rng_() >> 11) * 0x1.0p-53;
}

void FaultInjector::dropEdges(SignalId id, double probability, double from_s, double until_s) {
  if (probability < 0.0 || probability > 1.0)
    throw std::invalid_argument("FaultInjector::dropEdges: probability must be in [0, 1]");
  circuit_.markFaultTarget(id);
  Rule r;
  r.id = id;
  r.op = Rule::Op::Drop;
  r.probability = probability;
  r.from_s = from_s;
  r.until_s = until_s;
  rules_.push_back(r);
}

void FaultInjector::delayEdges(SignalId id, double probability, double min_delay_s,
                               double max_delay_s, double from_s, double until_s) {
  if (probability < 0.0 || probability > 1.0)
    throw std::invalid_argument("FaultInjector::delayEdges: probability must be in [0, 1]");
  if (min_delay_s <= 0.0 || max_delay_s < min_delay_s)
    throw std::invalid_argument("FaultInjector::delayEdges: need 0 < min_delay <= max_delay");
  circuit_.markFaultTarget(id);
  Rule r;
  r.id = id;
  r.op = Rule::Op::Delay;
  r.probability = probability;
  r.delay_min_s = min_delay_s;
  r.delay_max_s = max_delay_s;
  r.from_s = from_s;
  r.until_s = until_s;
  rules_.push_back(r);
}

void FaultInjector::stickSignal(SignalId id, double from_s, double until_s) {
  circuit_.markFaultTarget(id);
  Rule r;
  r.id = id;
  r.op = Rule::Op::Stick;
  r.from_s = from_s;
  r.until_s = until_s;
  rules_.push_back(r);
}

void FaultInjector::injectGlitch(SignalId id, double t, double width_s) {
  if (width_s <= 0.0) throw std::invalid_argument("FaultInjector::injectGlitch: width must be > 0");
  PLLBIST_ASSERT(t >= circuit_.now());
  circuit_.markFaultTarget(id);
  circuit_.scheduleCallback(t, [this, id, width_s](double now) {
    const bool restore_to = circuit_.value(id);
    circuit_.scheduleSet(id, now, !restore_to);
    ++stats_.glitches;
    circuit_.scheduleCallback(now + width_s, [this, id, restore_to](double then) {
      circuit_.scheduleSet(id, then, restore_to);
    });
  });
}

void FaultInjector::injectGlitchStorm(SignalId id, double t0_s, double t1_s,
                                      double mean_interval_s, double width_s) {
  if (mean_interval_s <= 0.0 || width_s <= 0.0 || t1_s <= t0_s)
    throw std::invalid_argument("FaultInjector::injectGlitchStorm: need t1 > t0 and positive "
                                "interval/width");
  scheduleStormPulse(id, t0_s, t1_s, mean_interval_s, width_s);
}

void FaultInjector::scheduleStormPulse(SignalId id, double t, double t1_s, double mean_interval_s,
                                       double width_s) {
  if (t >= t1_s) return;
  injectGlitch(id, t, width_s);
  // Exponential inter-arrival; 1 - u is in (0, 1] so the log is finite.
  const double gap = -mean_interval_s * std::log(1.0 - uniform01());
  scheduleStormPulse(id, t + std::max(gap, width_s), t1_s, mean_interval_s, width_s);
}

void FaultInjector::clearRules() { rules_.clear(); }

Circuit::InterceptVerdict FaultInjector::intercept(SignalId id, double now, bool /*value*/) {
  Circuit::InterceptVerdict verdict;
  bool matched_any = false;
  for (const Rule& rule : rules_) {
    if (rule.id != id || now < rule.from_s || now >= rule.until_s) continue;
    if (!matched_any) {
      matched_any = true;
      ++stats_.considered;
    }
    switch (rule.op) {
      case Rule::Op::Stick:
        ++stats_.dropped;
        verdict.action = Circuit::InterceptVerdict::Action::Drop;
        return verdict;
      case Rule::Op::Drop:
        if (uniform01() < rule.probability) {
          ++stats_.dropped;
          verdict.action = Circuit::InterceptVerdict::Action::Drop;
          return verdict;
        }
        break;
      case Rule::Op::Delay:
        if (uniform01() < rule.probability) {
          ++stats_.delayed;
          verdict.action = Circuit::InterceptVerdict::Action::Delay;
          verdict.delay_s =
              rule.delay_min_s + uniform01() * (rule.delay_max_s - rule.delay_min_s);
          return verdict;
        }
        break;
    }
  }
  return verdict;
}

}  // namespace pllbist::sim
