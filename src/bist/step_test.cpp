#include "bist/step_test.hpp"

#include <cmath>
#include <stdexcept>

#include "bist/counters.hpp"
#include "bist/dco.hpp"
#include "bist/peak_detector.hpp"
#include "common/assert.hpp"
#include "common/units.hpp"
#include "pll/cppll.hpp"
#include "pll/probes.hpp"
#include "sim/circuit.hpp"

namespace pllbist::bist {

namespace {
constexpr double kStepFraction = 0.01;  ///< reference step as a fraction of fref
}  // namespace

Status StepTestOptions::check() const {
  using K = Status::Kind;
  if (lock_wait_s <= 0.0)
    return Status::makef(K::InvalidArgument, "StepTestOptions: lock_wait_s = %g, must be positive",
                         lock_wait_s);
  if (freq_gate_s <= 0.0)
    return Status::makef(K::InvalidArgument, "StepTestOptions: freq_gate_s = %g, must be positive",
                         freq_gate_s);
  if (hold_to_gate_delay_s < 0.0)
    return Status::makef(K::InvalidArgument,
                         "StepTestOptions: hold_to_gate_delay_s = %g, must be >= 0",
                         hold_to_gate_delay_s);
  return Status();
}

void StepTestOptions::validate() const { check().throwIfError(); }

StepTestResult runStepTest(const pll::PllConfig& config, const StepTestOptions& options) {
  config.validate();
  options.validate();

  const double tref = 1.0 / config.ref_frequency_hz;
  const double min_peak_run = 5.0 * tref;
  // Watchdog: lock wait + two gates + a generous settling margin.
  const double timeout =
      options.lock_wait_s + 2.0 * options.freq_gate_s + 200.0 * tref + options.lock_wait_s;

  sim::Circuit c;
  const auto stim = c.addSignal("stim");
  Dco::Config dcfg;
  dcfg.master_clock_hz = config.ref_frequency_hz * 1000.0;
  dcfg.initial_modulus = 1000;
  Dco dco(c, stim, dcfg);
  pll::CpPll pll(c, dco, config);
  pll.setTestMode(true);
  PeakDetector detector(c, pll);
  FrequencyCounter counter(c, pll.vco());
  pll::LockDetector lock(pll, 0.02 * tref);  // 2% of Tref

  StepTestResult result;
  auto waitFor = [&c](bool& flag) {
    while (!flag) {
      if (!c.step()) throw AssertionError("runStepTest: event queue ran dry");
    }
  };

  // 1. Lock and count the nominal output.
  c.run(options.lock_wait_s);
  bool nominal_done = false;
  counter.measure(options.freq_gate_s, [&](FrequencyCounter::Result r) {
    result.nominal_hz = r.frequencyHz();
    nominal_done = true;
  });
  waitFor(nominal_done);

  // 2. Apply the reference step and track the transient.
  const double step_hz = config.ref_frequency_hz * kStepFraction;
  const double step_time = c.now();
  dco.setFrequency(config.ref_frequency_hz + step_hz);
  lock.reset();

  // Peak capture state machine (hold at the first qualified MFREQ fall).
  // MFREQ is typically already high at the step (the reference leads
  // immediately), so the run-length reference starts at the step itself.
  bool peak_done = false;
  bool hold_requested = false;
  double mfreq_rise = step_time;
  c.onRisingEdge(detector.mfreq(), [&](double now) { mfreq_rise = now; });
  detector.onMaxFrequency([&](double now) {
    if (hold_requested || now <= step_time) return;
    if (now - mfreq_rise < min_peak_run) return;
    hold_requested = true;
    pll.setHold(true);
    result.peak_time_s = now - step_time;
    c.scheduleCallback(now + options.hold_to_gate_delay_s, [&](double) {
      counter.measure(options.freq_gate_s, [&](FrequencyCounter::Result r) {
        result.peak_hz = r.frequencyHz();
        pll.setHold(false);
        peak_done = true;
      });
    });
  });

  // Watchdog on the peak stage: overdamped loops never reverse, which is a
  // legitimate outcome (peak_detected stays false) — the test continues
  // with the re-lock measurement.
  bool peak_watchdog_fired = false;
  c.scheduleCallback(step_time + timeout, [&](double) {
    if (!peak_done) peak_watchdog_fired = true;
  });
  while (!peak_done && !peak_watchdog_fired) {
    if (!c.step()) throw AssertionError("runStepTest: event queue ran dry");
  }
  result.peak_detected = peak_done;
  if (!peak_done && pll.holdAsserted()) pll.setHold(false);

  // 3. Wait for re-lock, then count the settled target. Same watchdog
  // discipline as the peak stage: a loop that never re-locks (dead, railed,
  // or chattering) terminates the test with a recorded reason instead of
  // hanging or silently truncating the result.
  const double relock_deadline = step_time + 2.0 * timeout;
  while (!lock.isLocked()) {
    if (!c.step(relock_deadline)) {
      result.timed_out = true;
      result.status = Status::makef(
          Status::Kind::SimulationStall,
          "runStepTest: event queue ran dry at t = %g s while waiting for re-lock", c.now());
      return result;
    }
    if (c.now() > relock_deadline) {
      result.timed_out = true;
      result.status = Status::makef(
          Status::Kind::Timeout,
          "runStepTest: loop failed to re-lock within %g s of the step (watchdog = 2x "
          "timeout; peak %sdetected)",
          relock_deadline - step_time, result.peak_detected ? "" : "not ");
      return result;
    }
  }
  result.relock_time_s = lock.lockTime() - step_time;

  // Let the tail of the transient die out before counting the settled
  // target: the lock detector asserts at ~2% phase convergence while the
  // frequency is still creeping the last fraction of a percent.
  c.run(c.now() + options.lock_wait_s);

  bool target_done = false;
  counter.measure(options.freq_gate_s, [&](FrequencyCounter::Result r) {
    result.target_hz = r.frequencyHz();
    target_done = true;
  });
  waitFor(target_done);

  // 4. Parameter extraction from the transient.
  const double rise = result.target_hz - result.nominal_hz;
  if (result.peak_detected && rise > 0.0 && result.peak_hz > result.target_hz) {
    result.overshoot_fraction = (result.peak_hz - result.target_hz) / rise;
    if (result.overshoot_fraction > 0.0 && result.overshoot_fraction < 1.0) {
      const double ln_inv = std::log(1.0 / result.overshoot_fraction);
      const double zeta = ln_inv / std::sqrt(kPi * kPi + ln_inv * ln_inv);
      result.zeta = zeta;
      if (result.peak_time_s > 0.0) {
        const double wn = kPi / (result.peak_time_s * std::sqrt(1.0 - zeta * zeta));
        result.natural_frequency_hz = radPerSecToHz(wn);
      }
    }
  }
  return result;
}

}  // namespace pllbist::bist
