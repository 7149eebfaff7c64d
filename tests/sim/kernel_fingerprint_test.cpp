// Differential fingerprint of the event kernel: three farm sweeps and one
// shared-bench sweep whose every kernel count and measured double is pinned
// bit for bit.
//
// The measured doubles of the hook-free sweeps come from the
// closure-per-event kernel, which simulated every VCO half-cycle, ran a
// standalone feedback divider, built both phase detectors from gates, wired
// the loop as a netlist of muxes, PFD, pump/filter and VCO, and re-ran the
// lock/nominal/DC prelude on every point. The farm now runs the prelude
// once and forks it per point, so the counts and sim_s cover one prelude
// plus each point's work after the fork.
//
// Some nets exist only while something watches them: the loop writes
// PLLREF, PLLFB, the PFD's feedback input, UP, DN and the PFD reset, and
// the VCO stops at every half-cycle to write its output, only while they
// have observers; the peak detector writes its monitor PFD's UP, DN and
// reset only while observed. Each farm sweep runs four ways: a dummy
// observer on each fork's VCO output ("observed"), dummy observers on the
// detectors' internal nets ("detectors observed"), dummy observers on the
// loop nets ("loop nets observed"), and unobserved. Only the event counts
// may differ between the variants: every measured double, sim_s, dropped
// and delayed count stays bit-equal. Delivered vs swallowed moved once
// (superseded handler events count as swallowed), so only their sum is
// pinned. The counts were re-pinned when the loop began to run ahead
// through its own instants between queued events (one kernel event covers
// many loop instants) and the peak detector stopped making MFREQ writes
// that cannot change MFREQ; no double moved. They were re-pinned again when
// the loop began to pull its reference edges from the stimulus source
// (the DCO, the delay line over its clock) instead of hearing them as
// stimulus-net writes; a fault rule on the stimulus makes the loop hear the
// net again, which the fault-injector sweeps check. The stimulus is then
// an observation tap, and a fifth variant observes it. The farm
// fault-injector sweep's faults start at the fork; the shared-bench sweep
// puts faults into the lock wait, and its values were pinned with the
// gate-level detectors.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bist/parallel_sweep.hpp"
#include "bist/resilient_sweep.hpp"
#include "bist/testbench.hpp"
#include "pll/config.hpp"
#include "support/test_configs.hpp"

namespace pllbist::bist {
namespace {

struct Fingerprint {
  uint64_t processed = 0;
  uint64_t dropped = 0;
  uint64_t delayed = 0;
  uint64_t delivered_plus_swallowed = 0;
  double sim_time_s = 0.0;
  double nominal_vco_hz = 0.0;
  double static_reference_deviation_hz = 0.0;
  /// Per point: modulation_hz, deviation_hz, phase_deg, unity_gain_deviation_hz.
  std::vector<double> points;
};

Fingerprint fingerprintOf(const ResilientResponse& r) {
  Fingerprint f;
  f.processed = r.bench.events_processed;
  f.dropped = r.bench.events_dropped;
  f.delayed = r.bench.events_delayed;
  f.delivered_plus_swallowed = r.bench.events_delivered + r.bench.events_swallowed;
  f.sim_time_s = r.report.sim_time_s;
  f.nominal_vco_hz = r.response.nominal_vco_hz;
  f.static_reference_deviation_hz = r.response.static_reference_deviation_hz;
  for (const MeasuredPoint& p : r.response.points) {
    f.points.push_back(p.modulation_hz);
    f.points.push_back(p.deviation_hz);
    f.points.push_back(p.phase_deg);
    f.points.push_back(p.unity_gain_deviation_hz);
  }
  return f;
}

/// The fingerprint in the initializer form used below, for re-pinning.
std::string describe(const Fingerprint& f) {
  char buf[128];
  std::string s = "{" + std::to_string(f.processed) + "u, " + std::to_string(f.dropped) + "u, " +
                  std::to_string(f.delayed) + "u, " + std::to_string(f.delivered_plus_swallowed) +
                  "u, ";
  std::snprintf(buf, sizeof buf, "%a, %a, %a,\n {", f.sim_time_s, f.nominal_vco_hz,
                f.static_reference_deviation_hz);
  s += buf;
  for (double d : f.points) {
    std::snprintf(buf, sizeof buf, "%a, ", d);
    s += buf;
  }
  return s + "}}";
}

void expectFingerprint(const ResilientResponse& r, const Fingerprint& want) {
  const Fingerprint got = fingerprintOf(r);
  SCOPED_TRACE("actual fingerprint: " + describe(got));
  EXPECT_EQ(got.processed, want.processed);
  EXPECT_EQ(got.dropped, want.dropped);
  EXPECT_EQ(got.delayed, want.delayed);
  EXPECT_EQ(got.delivered_plus_swallowed, want.delivered_plus_swallowed);
  // EXPECT_EQ, not NEAR: the kernel change must not move a single bit.
  EXPECT_EQ(got.sim_time_s, want.sim_time_s);
  EXPECT_EQ(got.nominal_vco_hz, want.nominal_vco_hz);
  EXPECT_EQ(got.static_reference_deviation_hz, want.static_reference_deviation_hz);
  ASSERT_EQ(got.points.size(), want.points.size());
  for (std::size_t i = 0; i < got.points.size(); ++i)
    EXPECT_EQ(got.points[i], want.points[i]) << "point " << i / 4 << " field " << i % 4;
}

/// The same fingerprint with other event counts: what the unobserved run
/// may change.
Fingerprint withCounts(Fingerprint f, uint64_t processed, uint64_t delivered_plus_swallowed) {
  f.processed = processed;
  f.delivered_plus_swallowed = delivered_plus_swallowed;
  return f;
}

using BenchHook = std::function<void(std::size_t, SweepTestbench&)>;

/// What each fork's dummy observers watch: nothing, the VCO output, the
/// phase detectors' internal nets (the monitor PFD's UP/DN and the loop
/// PFD's reset), the loop's nets (PLLREF, PLLFB, the PFD's feedback input,
/// UP and DN), or the stimulus the loop pulls, which are then written.
enum class Observe { Nothing, VcoOut, DetectorNets, LoopNets, Stimulus };

ResilientResponse runFarm(const pll::PllConfig& config, const SweepOptions& sweep,
                          Observe observe, BenchHook hook = nullptr) {
  ParallelSweepOptions popt;
  popt.jobs = 2;
  ParallelSweep engine(config, sweep, popt);
  engine.onPointTestbench([observe, hook](std::size_t index, SweepTestbench& bench) {
    std::vector<sim::SignalId> nets;
    if (observe == Observe::VcoOut) nets = {bench.pll().vcoOut()};
    if (observe == Observe::DetectorNets)
      nets = {bench.peakDetector().monitorUp(), bench.peakDetector().monitorDn(),
              bench.pll().pfdReset()};
    if (observe == Observe::LoopNets)
      nets = {bench.pll().ref(), bench.pll().feedback(), bench.pll().pfdFeedbackIn(),
              bench.pll().pfdUp(), bench.pll().pfdDn()};
    if (observe == Observe::Stimulus) nets = {bench.stimulusOut()};
    for (const sim::SignalId net : nets) bench.circuit().onChange(net, [](double, bool) {});
    if (hook) hook(index, bench);
  });
  return engine.run();
}

ResilientResponse referenceTwoPointSweep(Observe observe) {
  const pll::ReferenceStimulus stim = pll::referenceStimulus();
  SweepOptions sweep;
  sweep.stimulus = StimulusKind::MultiToneFsk;
  sweep.fm_steps = stim.fm_steps;
  sweep.deviation_hz = stim.max_deviation_hz;
  sweep.master_clock_hz = stim.master_clock_hz;
  sweep.modulation_frequencies_hz = SweepOptions::defaultSweep(8.0, 2);
  return runFarm(pll::referenceConfig(), sweep, observe);
}

const Fingerprint kReferenceTwoPoint{1174171u, 0u, 0u, 1174171u, 0x1.3b6687ff126f4p+3,
                                     0x1.86ap+15, 0x1.f9p+8,
                                     {0x1p+1, 0x1.e5p+8, -0x1.ac3e963dc486ap+2, 0x0p+0,  //
                                      0x1.4p+5, 0x1.8p+2, -0x1.8c3a535ecd2cbp+7, 0x0p+0}};

TEST(KernelFingerprint, ReferenceDeviceTwoPointSweep) {
  expectFingerprint(referenceTwoPointSweep(Observe::VcoOut), kReferenceTwoPoint);
}

TEST(KernelFingerprint, ReferenceDeviceTwoPointSweepUnobserved) {
  expectFingerprint(referenceTwoPointSweep(Observe::Nothing),
                    withCounts(kReferenceTwoPoint, 1567u, 1567u));
}

TEST(KernelFingerprint, ReferenceDeviceTwoPointSweepDetectorsObserved) {
  expectFingerprint(referenceTwoPointSweep(Observe::DetectorNets),
                    withCounts(kReferenceTwoPoint, 75312u, 75312u));
}

ResilientResponse fastMultiToneWithFaultInjector(Observe observe) {
  const SweepOptions sweep = testing::fastSweepOptions(StimulusKind::MultiToneFsk, 3);
  const ResilientResponse r = runFarm(
      testing::fastTestConfig(), sweep, observe, [](std::size_t index, SweepTestbench& bench) {
        sim::FaultInjector& inj = bench.faultInjector(pointSeed(17, index));
        inj.dropEdges(bench.stimulusMarker(), 0.2);
        inj.delayEdges(bench.stimulusOut(), 0.05, 1e-6, 5e-6);
      });
  EXPECT_GT(r.bench.events_dropped, 0u);
  EXPECT_GT(r.bench.events_delayed, 0u);
  return r;
}

const Fingerprint kFastMultiTone{
    173003u, 38u, 379u, 172586u, 0x1.2cbe4fc3a430fp-1, 0x1.869ffffffffffp+16, 0x1.f4p+9,
    {0x1.8ffffffffffffp+5, 0x1.4p+8, -0x1.442c5940f92bfp+8, 0x0p+0,  //
     0x1.bf36ae31d6e46p+7, 0x1.0ep+10, -0x1.c9c4779bad2c7p+6, 0x0p+0,  //
     0x1.f3fffffffffffp+9, 0x1.4p+5, -0x1.de597a7248712p+7, 0x0p+0}};

TEST(KernelFingerprint, ReferenceDeviceTwoPointSweepLoopNetsObserved) {
  expectFingerprint(referenceTwoPointSweep(Observe::LoopNets),
                    withCounts(kReferenceTwoPoint, 100483u, 100483u));
}

TEST(KernelFingerprint, ReferenceDeviceTwoPointSweepStimulusObserved) {
  expectFingerprint(referenceTwoPointSweep(Observe::Stimulus),
                    withCounts(kReferenceTwoPoint, 24758u, 24758u));
}

TEST(KernelFingerprint, FastDeviceMultiToneWithFaultInjector) {
  expectFingerprint(fastMultiToneWithFaultInjector(Observe::VcoOut), kFastMultiTone);
}

TEST(KernelFingerprint, FastDeviceMultiToneWithFaultInjectorUnobserved) {
  expectFingerprint(fastMultiToneWithFaultInjector(Observe::Nothing),
                    withCounts(kFastMultiTone, 18576u, 18159u));
}

TEST(KernelFingerprint, FastDeviceMultiToneWithFaultInjectorDetectorsObserved) {
  expectFingerprint(fastMultiToneWithFaultInjector(Observe::DetectorNets),
                    withCounts(kFastMultiTone, 62440u, 62023u));
}

TEST(KernelFingerprint, FastDeviceMultiToneWithFaultInjectorLoopNetsObserved) {
  expectFingerprint(fastMultiToneWithFaultInjector(Observe::LoopNets),
                    withCounts(kFastMultiTone, 75473u, 75056u));
}

ResilientResponse delayLinePmSweep(Observe observe) {
  const SweepOptions sweep = testing::fastSweepOptions(StimulusKind::DelayLinePm, 3);
  return runFarm(testing::fastTestConfig(), sweep, observe);
}

const Fingerprint kDelayLinePm{
    2378374u, 0u, 0u, 2378374u, 0x1.7f86fdb43278ap+2, 0x1.869ffffffffffp+16, 0x0p+0,
    {0x1.8ffffffffffffp+5, 0x0p+0, 0x0p+0, 0x0p+0,  //
     0x1.bf36ae31d6e46p+7, 0x1.fep+9, -0x1.cbabb8df78e3ep+6, 0x1.b70d09236a6f4p+9,  //
     0x1.f3fffffffffffp+9, 0x1.18p+7, -0x1.90c083126e978p+7, 0x1.eadfb4c5d390bp+11}};

TEST(KernelFingerprint, DelayLinePmSweep) {
  expectFingerprint(delayLinePmSweep(Observe::VcoOut), kDelayLinePm);
}

TEST(KernelFingerprint, DelayLinePmSweepUnobserved) {
  expectFingerprint(delayLinePmSweep(Observe::Nothing), withCounts(kDelayLinePm, 22999u, 22999u));
}

TEST(KernelFingerprint, DelayLinePmSweepDetectorsObserved) {
  expectFingerprint(delayLinePmSweep(Observe::DetectorNets), withCounts(kDelayLinePm, 777265u, 777265u));
}

TEST(KernelFingerprint, DelayLinePmSweepLoopNetsObserved) {
  expectFingerprint(delayLinePmSweep(Observe::LoopNets),
                    withCounts(kDelayLinePm, 1014182u, 1014182u));
}

TEST(KernelFingerprint, DelayLinePmSweepStimulusObserved) {
  expectFingerprint(delayLinePmSweep(Observe::Stimulus), withCounts(kDelayLinePm, 258661u, 258661u));
}

// The shared-bench sweep with faults during the lock wait: dropped and
// delayed reference edges make the loop slip cycles, and a storm of narrow
// glitches puts reference edges inside the PFD's reset window while the
// loop acquires lock. The faults stop early enough in the lock wait for the
// loop to relock before the nominal count.
ResilientResponse fastSweepWithLockAcquisitionFaults() {
  const SweepOptions sweep = testing::fastSweepOptions(StimulusKind::MultiToneFsk, 3);
  ResilientSweep engine(testing::fastTestConfig(), sweep);
  engine.onTestbench([until_s = 0.3 * sweep.lock_wait_s](SweepTestbench& bench) {
    sim::FaultInjector& inj = bench.faultInjector(23);
    inj.dropEdges(bench.stimulusOut(), 0.05, 0.0, until_s);
    inj.delayEdges(bench.stimulusOut(), 0.1, 1e-6, 5e-6, 0.0, until_s);
    inj.injectGlitchStorm(bench.stimulusOut(), 0.0, until_s, 200e-6, 5e-9);
  });
  const ResilientResponse r = engine.run();
  EXPECT_GT(r.bench.events_dropped, 0u);
  EXPECT_GT(r.bench.events_delayed, 0u);
  return r;
}

const Fingerprint kLockAcquisitionFaults{
    24231u, 19u, 48u, 24164u, 0x1.14e3c73a3bbb2p-1, 0x1.869ffffffffffp+16, 0x1.f4p+9,
    {0x1.8ffffffffffffp+5, 0x1.eap+9, -0x1.0f86c226809d4p+3, 0x0p+0,  //
     0x1.bf36ae31d6e46p+7, 0x1.0ep+10, -0x1.d66eaba29c023p+6, 0x0p+0,  //
     0x1.f3fffffffffffp+9, 0x1.4p+6, -0x1.cdf3de6c7039fp+7, 0x0p+0}};

TEST(KernelFingerprint, SharedBenchFaultsDuringLockAcquisition) {
  expectFingerprint(fastSweepWithLockAcquisitionFaults(), kLockAcquisitionFaults);
}

}  // namespace
}  // namespace pllbist::bist
