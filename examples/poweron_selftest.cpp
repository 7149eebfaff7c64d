// Power-on self-test scenario: at boot, firmware runs a two-tier BIST on
// the clock-synthesis PLL using the same on-chip capture hardware —
//
//   tier 1: single-transient step test (fast screen: lock, overshoot,
//           settle time, absolute frequency),
//   tier 2: full transfer-function sweep, only when tier 1 is marginal,
//           for diagnosis-grade fn/zeta/f3dB extraction.
//
// Run on a healthy device and on one with a damping defect.
//
// SIGINT/SIGTERM abort the self-test cooperatively between devices and
// between tiers; the process exits with code 130
// (exitCode(Status::Kind::Cancelled)). Exit codes: 0 = all devices
// tested, 130 = interrupted.

#include <cmath>
#include <cstdio>

#include "bist/analysis.hpp"
#include "bist/sweep_types.hpp"
#include "bist/step_test.hpp"
#include "common/status.hpp"
#include "common/stop_token.hpp"
#include "common/units.hpp"
#include "core/measurement.hpp"
#include "pll/config.hpp"
#include "pll/faults.hpp"

namespace {

using namespace pllbist;

struct SelfTestPolicy {
  double min_overshoot = 0.10;  // zeta upper bound proxy
  double max_overshoot = 0.45;  // zeta lower bound proxy
  double max_relock_s = 0.08;
  double nominal_tolerance = 0.01;
};

void runSelfTest(const char* name, const pll::PllConfig& cfg, const SelfTestPolicy& policy) {
  std::printf("=== %s ===\n", name);

  bist::StepTestOptions step_opt;
  step_opt.lock_wait_s = 0.05;
  step_opt.freq_gate_s = 0.05;
  step_opt.hold_to_gate_delay_s = 2e-4;
  const bist::StepTestResult step = bist::runStepTest(cfg, step_opt);

  std::printf("tier 1 (step screen): nominal %.0f Hz, overshoot %.1f%%, relock %.1f ms%s\n",
              step.nominal_hz, step.overshoot_fraction * 100.0, step.relock_time_s * 1e3,
              step.timed_out ? " [TIMEOUT]" : "");

  const double expected_nominal = cfg.ref_frequency_hz * 10.0;  // design intent: N = 10
  bool marginal = step.timed_out || !step.peak_detected ||
                  step.overshoot_fraction < policy.min_overshoot ||
                  step.overshoot_fraction > policy.max_overshoot ||
                  step.relock_time_s > policy.max_relock_s ||
                  std::abs(step.nominal_hz - expected_nominal) >
                      policy.nominal_tolerance * expected_nominal;
  if (!marginal) {
    std::printf("tier 1 verdict: PASS (no tier 2 needed)\n\n");
    return;
  }
  std::printf("tier 1 verdict: MARGINAL -> running tier 2 sweep for diagnosis\n");
  if (globalStopSource().stopRequested()) {
    std::printf("tier 2 skipped: stop requested\n\n");
    return;
  }

  // Tier 2 runs through the resilient engine: on a sick device a point may
  // need retries or fail outright, and a boot-time self-test must report
  // that rather than hang or crash the diagnosis.
  const core::MeasurementResult diag =
      core::measure(cfg, bist::quickSweepOptions(cfg, bist::StimulusKind::MultiToneFsk, 9));
  std::printf("tier 2 quality: %s\n", diag.quality.summary().c_str());
  if (!diag.status.ok()) {
    std::printf("tier 2 verdict: FAIL (%s)\n\n", diag.status.toString().c_str());
    return;
  }
  const bist::ExtractedParameters& p = diag.parameters;
  std::printf("tier 2 (sweep): peaking %.2f dB at %.1f Hz", p.peaking_db, p.peak_frequency_hz);
  if (p.zeta) std::printf(", zeta %.3f", *p.zeta);
  if (p.natural_frequency_hz) std::printf(", fn %.1f Hz", *p.natural_frequency_hz);
  if (p.bandwidth_3db_hz) std::printf(", f3dB %.1f Hz", *p.bandwidth_3db_hz);
  std::printf("\ndiagnosis: %s\n\n",
              p.peaking_db < 0.5 ? "overdamped response -> suspect R2/damping path"
              : p.zeta && *p.zeta < 0.25
                  ? "underdamped response -> suspect filter C or pump strength"
                  : "response shifted -> compare against golden signature");
}

}  // namespace

int main() {
  installStopSignalHandlers();
  const SelfTestPolicy policy;
  struct Device {
    const char* name;
    pll::FaultSpec fault;
  };
  const Device devices[] = {
      {"healthy device", {pll::FaultSpec::Kind::None, 0.0}},
      {"damping defect (R2 x3)", {pll::FaultSpec::Kind::FilterR2Drift, 3.0}},
      {"divider defect (N = 11)", {pll::FaultSpec::Kind::DividerWrongN, 11.0}},
  };
  for (const Device& d : devices) {
    if (globalStopSource().stopRequested()) {
      std::printf("self-test interrupted: remaining devices skipped.\n");
      return exitCode(Status::Kind::Cancelled);
    }
    runSelfTest(d.name, pll::applyFault(pll::scaledTestConfig(200.0, 0.43), d.fault), policy);
  }
  if (globalStopSource().stopRequested()) return exitCode(Status::Kind::Cancelled);
  return 0;
}
