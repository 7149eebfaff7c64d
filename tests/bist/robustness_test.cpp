#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "bist/peak_detector.hpp"
#include "bist/resilient_sweep.hpp"
#include "bist/sequencer.hpp"
#include "bist/testbench.hpp"
#include "common/units.hpp"
#include "core/measurement.hpp"
#include "pll/cppll.hpp"
#include "pll/faults.hpp"
#include "pll/sources.hpp"
#include "sim/fault_injector.hpp"
#include "support/stall.hpp"
#include "support/test_configs.hpp"
#include "support/tolerance.hpp"

namespace pllbist::bist {
namespace {

using pllbist::testing::fastSweepOptions;
using pllbist::testing::fastTestConfig;

/// Determinism: the whole simulated measurement is reproducible bit-for-bit
/// across runs (a hard requirement for debugging and CI).
TEST(Robustness, SweepIsDeterministic) {
  auto run = [] {
    return ResilientSweep(fastTestConfig(), fastSweepOptions(StimulusKind::MultiToneFsk, 5),
                          {.max_attempts = 1})
        .run()
        .response;
  };
  const MeasuredResponse a = run();
  const MeasuredResponse b = run();
  ASSERT_EQ(a.points.size(), b.points.size());
  for (size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].deviation_hz, b.points[i].deviation_hz) << i;
    EXPECT_EQ(a.points[i].phase_deg, b.points[i].phase_deg) << i;
  }
  EXPECT_EQ(a.nominal_vco_hz, b.nominal_vco_hz);
}

/// The sequencer measuring a PLL whose reference carries realistic edge
/// jitter (0.2% of the period RMS): the averaged phase measurement must
/// stay close to the clean value.
TEST(Robustness, PointMeasurementSurvivesReferenceJitter) {
  const pll::PllConfig cfg = fastTestConfig();

  auto measureWithJitter = [&](double jitter_rms) {
    sim::Circuit c;
    const auto ext = c.addSignal("ext");
    const auto stim = c.addSignal("stim");
    const auto marker = c.addSignal("marker");
    pll::SineFmSource::Config scfg;
    scfg.nominal_hz = cfg.ref_frequency_hz;
    scfg.edge_jitter_rms_s = jitter_rms;
    pll::SineFmSource src(c, stim, scfg);
    sim::SourceDriver drive(c, src);
    SineFmProgram program(c, src, marker, {cfg.ref_frequency_hz, 100.0});
    pll::CpPll pll(c, ext, stim, cfg);
    pll.setTestMode(true);
    PeakDetector det(c, pll);
    TestSequencer::Options opt;
    opt.freq_gate_s = 0.05;
    opt.hold_to_gate_delay_s = 2e-4;
    opt.average_periods = 8;  // jitter averages out over more periods
    TestSequencer seq(c, pll, program, det, 10e6, opt);
    c.run(0.05);
    bool done = false;
    TestSequencer::PointResult r;
    seq.measurePoint(200.0, [&](TestSequencer::PointResult pr) {
      r = std::move(pr);
      done = true;
    });
    while (!done) {
      if (!c.step()) ADD_FAILURE() << "queue ran dry";
    }
    return r;
  };

  const TestSequencer::PointResult clean = measureWithJitter(0.0);
  const TestSequencer::PointResult jittered = measureWithJitter(2e-7);  // 0.2% of Tref
  ASSERT_FALSE(clean.timed_out);
  ASSERT_FALSE(jittered.timed_out);
  EXPECT_PHASE_NEAR_DEG(jittered.phase_deg, clean.phase_deg, 15.0);
  EXPECT_NEAR(jittered.held_frequency_hz, clean.held_frequency_hz,
              0.1 * (clean.held_frequency_hz - cfg.nominalVcoHz()));
}

/// The deviation must never push the VCO into its tuning-range clamp during
/// a sweep — and if a misconfigured (too-large) stimulus does, the
/// measurement degrades but the BIST still terminates.
TEST(Robustness, OversizedStimulusTerminates) {
  const pll::PllConfig cfg = fastTestConfig();
  SweepOptions opt = fastSweepOptions(StimulusKind::MultiToneFsk, 3);
  opt.deviation_hz = 800.0;  // 8% of the reference: phase errors near the PFD limit
  const MeasuredResponse r =
      ResilientSweep(cfg, opt, {.max_attempts = 1}).run().response;  // must not hang or throw
  EXPECT_EQ(r.points.size(), 3u);
}

/// Cross-check the two fast devices: voltage-pump and current-pump DUTs
/// designed for the same (fn, zeta) must produce overlapping responses.
TEST(Robustness, PumpTopologiesAgreeOnTheResponse) {
  const SweepOptions vopt = fastSweepOptions(StimulusKind::MultiToneFsk, 6);
  const control::BodeResponse v =
      ResilientSweep(pll::scaledTestConfig(200.0, 0.43), vopt, {.max_attempts = 1})
          .run()
          .response.toBode();
  const control::BodeResponse i =
      ResilientSweep(pll::scaledCurrentPumpConfig(200.0, 0.43), vopt, {.max_attempts = 1})
          .run()
          .response.toBode();
  ASSERT_EQ(v.size(), i.size());
  for (size_t k = 0; k < v.size(); ++k) {
    const double f = radPerSecToHz(v.points()[k].omega_rad_per_s);
    if (f > 700.0) continue;
    EXPECT_DB_NEAR(v.points()[k].magnitude_db, i.points()[k].magnitude_db, 1.5) << f;
    EXPECT_PHASE_NEAR_DEG(v.points()[k].phase_deg, i.points()[k].phase_deg, 15.0) << f;
  }
}

/// Two-point sweep sized for the resilient-layer tests: in-band and
/// above-band, short enough that retry escalation stays affordable.
SweepOptions resilientTestOptions() {
  SweepOptions opt = fastSweepOptions(StimulusKind::MultiToneFsk, 4);
  opt.modulation_frequencies_hz = {200.0, 400.0};
  return opt;
}

/// A healthy device through the resilient layer: every point Ok on its
/// first attempt, clean report, no relocks.
TEST(ResilientSweepEngine, CleanDeviceYieldsAllOkPoints) {
  ResilientSweep engine(fastTestConfig(), resilientTestOptions());
  const ResilientResponse r = engine.run();
  EXPECT_TRUE(r.status.ok()) << r.status.toString();
  ASSERT_EQ(r.response.points.size(), 2u);
  for (const MeasuredPoint& p : r.response.points) {
    EXPECT_EQ(p.quality, PointQuality::Ok) << to_string(p.quality);
    EXPECT_EQ(p.attempts, 1);
    EXPECT_TRUE(p.status.ok()) << p.status.toString();
  }
  EXPECT_TRUE(r.report.clean());
  EXPECT_EQ(r.report.points_total, 2);
  EXPECT_EQ(r.report.ok, 2);
  EXPECT_EQ(r.report.attempts_total, 2);
  EXPECT_EQ(r.report.relocks, 0);
  EXPECT_GT(r.report.sim_time_s, 0.0);
  EXPECT_NE(r.report.summary().find("2 points"), std::string::npos) << r.report.summary();
}

/// On a healthy device the retry budget is never touched: a plain
/// one-attempt sweep measures the same response, bit for bit, as the
/// default three-attempt one (attempt 0 runs with the base budgets).
TEST(ResilientSweepEngine, MatchesPlainControllerOnHealthyDevice) {
  const ResilientResponse a =
      ResilientSweep(fastTestConfig(), resilientTestOptions(), {.max_attempts = 1}).run();
  const ResilientResponse b = ResilientSweep(fastTestConfig(), resilientTestOptions()).run();
  EXPECT_EQ(a.response.nominal_vco_hz, b.response.nominal_vco_hz);
  EXPECT_EQ(a.response.static_reference_deviation_hz, b.response.static_reference_deviation_hz);
  ASSERT_EQ(a.response.points.size(), b.response.points.size());
  for (size_t i = 0; i < a.response.points.size(); ++i) {
    EXPECT_EQ(a.response.points[i].deviation_hz, b.response.points[i].deviation_hz) << i;
    EXPECT_EQ(a.response.points[i].phase_deg, b.response.points[i].phase_deg) << i;
    EXPECT_EQ(a.response.points[i].attempts, 1) << i;
  }
  EXPECT_EQ(a.bench.events_processed, b.bench.events_processed);
}

/// One attempt per point: a point whose MAXFREQ edges are all lost times
/// out once and is Dropped with RetryExhausted. The stimulus is then parked
/// and the loop checked for lock before the next point, which measures
/// cleanly — the sweep goes on.
TEST(ResilientSweepEngine, OneAttemptTimeoutDropsPointAndContinues) {
  ResilientSweep engine(fastTestConfig(), resilientTestOptions(), {.max_attempts = 1});
  engine.onAttemptStart([](std::size_t point, int /*attempt*/, SweepTestbench& tb) {
    sim::FaultInjector& inj = tb.faultInjector(5);
    inj.clearRules();
    if (point == 0) inj.dropEdges(tb.mfreq(), 1.0, tb.circuit().now());
  });
  const ResilientResponse r = engine.run();
  EXPECT_TRUE(r.status.ok()) << r.status.toString();
  ASSERT_EQ(r.response.points.size(), 2u);
  const MeasuredPoint& dropped = r.response.points[0];
  EXPECT_EQ(dropped.quality, PointQuality::Dropped) << to_string(dropped.quality);
  EXPECT_TRUE(dropped.timed_out);
  EXPECT_EQ(dropped.attempts, 1);
  EXPECT_EQ(dropped.status.kind(), Status::Kind::RetryExhausted) << dropped.status.toString();
  EXPECT_EQ(r.response.points[1].quality, PointQuality::Ok);
  EXPECT_TRUE(r.response.points[1].status.ok()) << r.response.points[1].status.toString();
  EXPECT_EQ(r.report.attempts_total, 2);
  EXPECT_EQ(r.report.relock_failures, 0);
  EXPECT_EQ(r.response.toBode().size(), 1u);
}

/// A stuck peak detector for the first attempt of the first point (every
/// MAXFREQ edge dropped): the point must time out once, then measure
/// cleanly on the retry — classified Retried, not Dropped.
TEST(ResilientSweepEngine, StuckPeakDetectorEdgeIsRetried) {
  ResilientSweepOptions rs;
  rs.max_attempts = 3;
  rs.settle_backoff = 1.5;
  ResilientSweep engine(fastTestConfig(), resilientTestOptions(), rs);
  engine.onAttemptStart([](std::size_t point, int attempt, SweepTestbench& tb) {
    sim::FaultInjector& inj = tb.faultInjector(99);
    inj.clearRules();
    if (point == 0 && attempt == 0) inj.stickSignal(tb.mfreq(), tb.circuit().now());
  });
  const ResilientResponse r = engine.run();
  EXPECT_TRUE(r.status.ok()) << r.status.toString();
  ASSERT_EQ(r.response.points.size(), 2u);
  EXPECT_EQ(r.response.points[0].quality, PointQuality::Retried);
  EXPECT_EQ(r.response.points[0].attempts, 2);
  EXPECT_FALSE(r.response.points[0].timed_out);
  EXPECT_TRUE(r.response.points[0].status.ok());
  EXPECT_EQ(r.response.points[1].quality, PointQuality::Ok);
  EXPECT_EQ(r.report.retried, 1);
  EXPECT_EQ(r.report.ok, 1);
  EXPECT_EQ(r.report.dropped, 0);
  EXPECT_EQ(r.report.attempts_total, 3);
}

/// A dead reference during the first attempt (the stimulus net stuck, so
/// the PFD sees no edges and the loop rails): the attempt times out, the
/// lock loss is detected, the loop re-locks within the bounded wait, and
/// the point is re-measured — classified Degraded, with the relock counted.
TEST(ResilientSweepEngine, LockLossIsRelockedAndResumed) {
  ResilientSweepOptions rs;
  rs.max_attempts = 3;
  rs.relock_wait_periods = 100.0;  // railed VCO: allow a generous reacquisition
  ResilientSweep engine(fastTestConfig(), resilientTestOptions(), rs);
  engine.onAttemptStart([](std::size_t point, int attempt, SweepTestbench& tb) {
    sim::FaultInjector& inj = tb.faultInjector(7);
    inj.clearRules();
    if (point == 0 && attempt == 0) {
      const double now = tb.circuit().now();
      inj.stickSignal(tb.stimulusOut(), now, now + 0.4);  // covers the watchdog window
    }
  });
  const ResilientResponse r = engine.run();
  EXPECT_TRUE(r.status.ok()) << r.status.toString();
  ASSERT_EQ(r.response.points.size(), 2u);
  EXPECT_EQ(r.response.points[0].quality, PointQuality::Degraded)
      << to_string(r.response.points[0].quality) << " " << r.response.points[0].status.toString();
  EXPECT_FALSE(r.response.points[0].timed_out);
  EXPECT_GE(r.response.points[0].attempts, 2);
  EXPECT_EQ(r.response.points[1].quality, PointQuality::Ok);
  EXPECT_EQ(r.report.relocks, 1);
  EXPECT_EQ(r.report.relock_failures, 0);
  EXPECT_EQ(r.report.degraded, 1);
  EXPECT_EQ(r.report.dropped, 0);
}

/// A peak detector stuck for every attempt of one point: the retry budget
/// exhausts, the point is Dropped with RetryExhausted — and the sweep still
/// returns, with the other point measured cleanly.
TEST(ResilientSweepEngine, ExhaustedRetryBudgetDropsPointOnly) {
  ResilientSweepOptions rs;
  rs.max_attempts = 2;
  rs.settle_backoff = 1.5;
  ResilientSweep engine(fastTestConfig(), resilientTestOptions(), rs);
  engine.onAttemptStart([](std::size_t point, int /*attempt*/, SweepTestbench& tb) {
    sim::FaultInjector& inj = tb.faultInjector(3);
    inj.clearRules();
    if (point == 0) inj.stickSignal(tb.mfreq(), tb.circuit().now());
  });
  const ResilientResponse r = engine.run();
  EXPECT_TRUE(r.status.ok()) << r.status.toString();
  ASSERT_EQ(r.response.points.size(), 2u);
  const MeasuredPoint& dropped = r.response.points[0];
  EXPECT_EQ(dropped.quality, PointQuality::Dropped);
  EXPECT_TRUE(dropped.timed_out);
  EXPECT_EQ(dropped.attempts, 2);
  EXPECT_EQ(dropped.status.kind(), Status::Kind::RetryExhausted) << dropped.status.toString();
  EXPECT_EQ(r.response.points[1].quality, PointQuality::Ok);
  EXPECT_EQ(r.report.dropped, 1);
  EXPECT_EQ(r.report.ok, 1);
  EXPECT_EQ(r.report.attempts_total, 3);
  // The dropped point is excluded from the Bode conversion, which still
  // works off the surviving point.
  EXPECT_EQ(r.response.toBode().size(), 1u);
}

/// The acceptance scenario: a catastrophic device (feedback divider counts
/// 25 instead of 10, so the loop rails against the VCO clamp and never
/// locks) plus active sim-level fault injection. The sweep must complete in
/// bounded time without throwing, label every point, and account for the
/// failed relocks.
TEST(ResilientSweepEngine, CatastrophicDeviceCompletesFullyLabelled) {
  const pll::PllConfig sick =
      pll::applyFault(fastTestConfig(), {pll::FaultSpec::Kind::DividerWrongN, 25.0});
  ResilientSweepOptions rs;
  rs.max_attempts = 2;
  rs.relock_wait_periods = 10.0;  // a railed loop never relocks; keep the wait short
  ResilientSweep engine(sick, resilientTestOptions(), rs);
  uint64_t injected_drops = 0;
  engine.onTestbench([](SweepTestbench& tb) {
    // Background injection on top of the hard fault: a quarter of the peak
    // detector's MFREQ transitions lost. (Dropping *reference* edges would
    // actually revive a railed PFD — a missing ref edge lets the feedback
    // lead and fakes a MAXFREQ event — so the deaf-detector fault is the
    // one that composes with a dead loop.) The engine must stay bounded.
    tb.faultInjector(11).dropEdges(tb.mfreq(), 0.25);
  });
  engine.onAttemptStart([&](std::size_t, int, SweepTestbench& tb) {
    injected_drops = tb.faultInjector().stats().dropped;
  });
  const ResilientResponse r = engine.run();
  EXPECT_TRUE(r.status.ok()) << r.status.toString();  // no fatal stall — just a dead DUT
  ASSERT_EQ(r.response.points.size(), 2u);
  for (const MeasuredPoint& p : r.response.points) {
    EXPECT_EQ(p.quality, PointQuality::Dropped) << to_string(p.quality);
    EXPECT_TRUE(p.timed_out);
    EXPECT_FALSE(p.status.ok());
    EXPECT_EQ(p.status.kind(), Status::Kind::RelockFailed) << p.status.toString();
  }
  EXPECT_EQ(r.report.dropped, 2);
  EXPECT_EQ(r.report.usable(), 0);
  EXPECT_GE(r.report.relock_failures, 2);
  EXPECT_GT(injected_drops, 0u);
  EXPECT_EQ(r.response.toBode().size(), 0u);  // every point excluded from the fit
}

/// A wall budget far below one point's cost: every point is dropped with
/// DeadlineExceeded in its first attempt, and the next point still starts,
/// because the abandoned attempt leaves the sequencer idle. The sweep
/// neither throws nor hangs.
TEST(ResilientSweepEngine, ExpiredPointBudgetDropsEveryPointWithoutThrowing) {
  ResilientSweepOptions rs;
  rs.point_budget_s = 1e-6;
  ResilientSweep engine(fastTestConfig(), fastSweepOptions(StimulusKind::MultiToneFsk, 3), rs);
  ResilientResponse r;
  ASSERT_NO_THROW(r = engine.run());
  EXPECT_TRUE(r.status.ok()) << r.status.toString();
  ASSERT_EQ(r.response.points.size(), 3u);
  for (const MeasuredPoint& p : r.response.points) {
    EXPECT_EQ(p.quality, PointQuality::Dropped) << to_string(p.quality);
    EXPECT_EQ(p.status.kind(), Status::Kind::DeadlineExceeded) << p.status.toString();
    EXPECT_EQ(p.attempts, 1);
  }
  EXPECT_EQ(r.report.dropped, 3);
  EXPECT_EQ(r.report.attempts_total, 3);
}

/// A per-point budget beyond the steady clock's range is no budget: every
/// point of a healthy device measures Ok on its first attempt.
TEST(ResilientSweepEngine, PointBudgetBeyondTheClockRangeNeverExpires) {
  ResilientSweepOptions rs;
  rs.point_budget_s = 1e30;
  ResilientSweep engine(fastTestConfig(), fastSweepOptions(StimulusKind::MultiToneFsk, 3), rs);
  const ResilientResponse r = engine.run();
  EXPECT_TRUE(r.status.ok()) << r.status.toString();
  ASSERT_EQ(r.response.points.size(), 3u);
  for (const MeasuredPoint& p : r.response.points)
    EXPECT_EQ(p.quality, PointQuality::Ok) << p.status.toString();
}

/// The shared-bench counterpart of
/// ParallelSweep.StopDuringThePreludeLabelsEveryPendingPointOnce: a stop
/// that trips during the lock wait leaves every requested point labelled
/// Cancelled exactly once, unattempted, with the progress callback fired
/// once per point.
TEST(ResilientSweepEngine, StopDuringThePreludeLabelsEveryPointOnce) {
  ResilientSweep engine(fastTestConfig(), fastSweepOptions(StimulusKind::MultiToneFsk, 4));
  StopSource stop;
  stop.requestStop();  // trips at the lock wait's first poll
  engine.attachStop(&stop);
  int attempts = 0;
  std::vector<double> reported;
  engine.onAttemptStart([&](std::size_t, int, SweepTestbench&) { ++attempts; });
  engine.onPointMeasured([&](const MeasuredPoint& p) { reported.push_back(p.modulation_hz); });
  const ResilientResponse r = engine.run();
  EXPECT_EQ(attempts, 0);
  EXPECT_EQ(r.status.kind(), Status::Kind::Cancelled) << r.status.toString();
  ASSERT_EQ(r.response.points.size(), 4u);
  EXPECT_EQ(reported, fastSweepOptions(StimulusKind::MultiToneFsk, 4).modulation_frequencies_hz);
  EXPECT_EQ(r.report.points_total, 4);
  EXPECT_EQ(r.report.dropped, 4);
  EXPECT_EQ(r.report.attempts_total, 0);
  for (const MeasuredPoint& p : r.response.points) {
    EXPECT_EQ(p.quality, PointQuality::Dropped);
    EXPECT_EQ(p.status.kind(), Status::Kind::Cancelled) << p.status.toString();
  }
}

/// A stalled prelude (the queue ran dry; no real bench does, so the test
/// hands runPoints the prelude's verdict) yields every requested point,
/// unattempted, carrying the stall status, as the farm labels them.
TEST(ResilientSweepEngine, StalledPreludeLabelsEveryPointWithItsStatus) {
  ResilientSweep engine(fastTestConfig(), fastSweepOptions(StimulusKind::MultiToneFsk, 3));
  int attempts = 0;
  engine.onAttemptStart([&](std::size_t, int, SweepTestbench&) { ++attempts; });
  const std::unique_ptr<SweepTestbench> bench = engine.makeBench();
  ResilientSweep::Prelude prelude;
  prelude.status = Status::make(Status::Kind::SimulationStall, "during the initial lock wait");
  const ResilientResponse r = engine.runPoints(*bench, prelude, prelude.end);
  EXPECT_EQ(attempts, 0);
  EXPECT_EQ(r.status.kind(), Status::Kind::SimulationStall);
  ASSERT_EQ(r.response.points.size(), 3u);
  EXPECT_EQ(r.report.points_total, 3);
  EXPECT_EQ(r.report.dropped, 3);
  EXPECT_EQ(r.report.attempts_total, 0);
  for (const MeasuredPoint& p : r.response.points) {
    EXPECT_EQ(p.quality, PointQuality::Dropped);
    EXPECT_EQ(p.status.kind(), Status::Kind::SimulationStall) << p.status.toString();
  }
}

/// Point 1 of 3 stalls: its first attempt times out on a dead loop, and the
/// queue runs dry in the relock grace wait. Point 2 is still reported,
/// unattempted, with the stall's status, so points_total is the requested
/// count.
TEST(ResilientSweepEngine, StallInsideAPointLabelsEveryLaterPoint) {
  const SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 3);
  ResilientSweep engine(fastTestConfig(), sweep);
  engine.onAttemptStart([](std::size_t i, int attempt, SweepTestbench& bench) {
    if (i == 1 && attempt == 0) testing::drainQueue(bench.circuit());
  });
  const ResilientResponse r = engine.run();
  EXPECT_EQ(r.status.kind(), Status::Kind::SimulationStall) << r.status.toString();
  ASSERT_EQ(r.response.points.size(), 3u);
  EXPECT_EQ(r.report.points_total, 3);
  EXPECT_EQ(r.response.points[0].quality, PointQuality::Ok);
  const MeasuredPoint& stalled = r.response.points[1];
  EXPECT_EQ(stalled.quality, PointQuality::Dropped);
  EXPECT_EQ(stalled.status.kind(), Status::Kind::SimulationStall) << stalled.status.toString();
  EXPECT_EQ(stalled.attempts, 1);
  const MeasuredPoint& later = r.response.points[2];
  EXPECT_EQ(later.modulation_hz, sweep.modulation_frequencies_hz[2]);
  EXPECT_EQ(later.quality, PointQuality::Dropped);
  EXPECT_EQ(later.status.kind(), Status::Kind::SimulationStall) << later.status.toString();
  EXPECT_EQ(later.attempts, 0);
  EXPECT_EQ(r.report.attempts_total, 1 + stalled.attempts);
}

/// core::measure on the same catastrophic device: never throws, reports
/// NoValidPoints with the full quality accounting attached.
TEST(ResilientSweepEngine, CoreFacadeReportsNoValidPoints) {
  const pll::PllConfig sick =
      pll::applyFault(fastTestConfig(), {pll::FaultSpec::Kind::DividerWrongN, 25.0});
  ResilientSweepOptions rs;
  rs.max_attempts = 1;
  rs.relock_wait_periods = 10.0;
  const core::MeasurementResult result = core::measure(sick, resilientTestOptions(), rs);
  EXPECT_EQ(result.status.kind(), Status::Kind::NoValidPoints) << result.status.toString();
  EXPECT_EQ(result.quality.dropped, 2);
  EXPECT_EQ(result.quality.usable(), 0);
  EXPECT_EQ(result.sweep.points.size(), 2u);
}

}  // namespace
}  // namespace pllbist::bist
