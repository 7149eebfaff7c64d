#pragma once

#include <optional>

#include "common/status.hpp"
#include "pll/config.hpp"

namespace pllbist::bist {

/// Digital-only step-response test — the companion technique the authors
/// pursue in reference [12] ("minimum invasion digital only built-in ramp
/// based test techniques"). Instead of sweeping a modulation tone, the
/// reference is stepped once and the transient is captured with the same
/// peak-detect / hold / count hardware:
///
///   - the first MFREQ reversal after the step marks the transient *peak*;
///     holding there and counting gives the overshoot,
///   - the time from step to peak is the damped half-period,
///   - the lock detector gives the re-lock (settling) time.
///
/// Because the held value is the capacitor-node peak, the overshoot maps to
/// the textbook second-order formula exp(-pi*zeta/sqrt(1-zeta^2)) with *no
/// zero correction*, so a single transient yields both zeta and fn.
///
/// The reference steps by 1% of fref. MFREQ must have been high for at
/// least 5 reference cycles for its fall to count as the transient peak
/// (rejects pre-step chatter), and the watchdog allows two lock waits, two
/// gates and 200 reference cycles.
struct StepTestOptions {
  double lock_wait_s = 1.0;        ///< initial lock acquisition time
  double freq_gate_s = 1.0;        ///< frequency-counter gate
  double hold_to_gate_delay_s = 2e-3;

  /// Structured check; Status::ok() when the options are usable.
  [[nodiscard]] Status check() const;
  /// check().throwIfError() — kept for the exception-based API.
  void validate() const;
};

struct StepTestResult {
  double nominal_hz = 0.0;        ///< counted VCO output before the step
  double target_hz = 0.0;         ///< counted VCO output after re-lock
  double peak_hz = 0.0;           ///< held VCO output at the transient peak
  double overshoot_fraction = 0.0;
  double peak_time_s = 0.0;       ///< step -> detected peak
  double relock_time_s = 0.0;     ///< step -> lock-detector assertion
  bool peak_detected = false;     ///< false for overdamped loops (no reversal)
  bool timed_out = false;         ///< loop never re-locked

  /// Why the test aborted early (Timeout with the deadline and what the
  /// loop was doing; SimulationStall when the event queue ran dry during
  /// re-lock). ok() for a complete run — including the legitimate
  /// no-overshoot outcome of overdamped loops.
  Status status;

  /// Loop parameters from the transient: zeta from overshoot, fn from the
  /// damped peak time t_p = pi/(wn*sqrt(1-zeta^2)). Empty when the
  /// transient was unusable (no overshoot / timeout).
  std::optional<double> zeta;
  std::optional<double> natural_frequency_hz;
};

/// Run the complete step test on a simulated device. Synchronous; builds a
/// private circuit like ResilientSweep.
StepTestResult runStepTest(const pll::PllConfig& config, const StepTestOptions& options);

}  // namespace pllbist::bist
