#include "bist/parallel_sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "bist/testbench.hpp"
#include "common/assert.hpp"
#include "support/test_configs.hpp"

namespace pllbist::bist {
namespace {

using pllbist::testing::fastSweepOptions;
using pllbist::testing::fastTestConfig;

ResilientResponse runFarm(const SweepOptions& sweep, int jobs,
                          uint64_t fault_seed = 0) {
  ParallelSweepOptions popt;
  popt.jobs = jobs;
  ParallelSweep engine(fastTestConfig(), sweep, popt);
  if (fault_seed != 0) {
    engine.onPointTestbench([fault_seed](std::size_t index, SweepTestbench& bench) {
      // Per-point derived seed: the injected fault stream for point i is a
      // pure function of (base seed, i), never of the worker or schedule.
      sim::FaultInjector& inj = bench.faultInjector(pointSeed(fault_seed, index));
      inj.dropEdges(bench.stimulusMarker(), 0.2);
    });
  }
  return engine.run();
}

void expectBitIdentical(const ResilientResponse& a, const ResilientResponse& b) {
  ASSERT_EQ(a.response.points.size(), b.response.points.size());
  for (std::size_t i = 0; i < a.response.points.size(); ++i) {
    const MeasuredPoint& pa = a.response.points[i];
    const MeasuredPoint& pb = b.response.points[i];
    // EXPECT_EQ, not NEAR: the contract is bit-identical doubles.
    EXPECT_EQ(pa.modulation_hz, pb.modulation_hz) << "point " << i;
    EXPECT_EQ(pa.deviation_hz, pb.deviation_hz) << "point " << i;
    EXPECT_EQ(pa.phase_deg, pb.phase_deg) << "point " << i;
    EXPECT_EQ(pa.unity_gain_deviation_hz, pb.unity_gain_deviation_hz) << "point " << i;
    EXPECT_EQ(pa.quality, pb.quality) << "point " << i;
    EXPECT_EQ(pa.attempts, pb.attempts) << "point " << i;
    EXPECT_EQ(pa.timed_out, pb.timed_out) << "point " << i;
  }
  EXPECT_EQ(a.response.nominal_vco_hz, b.response.nominal_vco_hz);
  EXPECT_EQ(a.response.static_reference_deviation_hz, b.response.static_reference_deviation_hz);
  EXPECT_EQ(a.report.points_total, b.report.points_total);
  EXPECT_EQ(a.report.ok, b.report.ok);
  EXPECT_EQ(a.report.retried, b.report.retried);
  EXPECT_EQ(a.report.degraded, b.report.degraded);
  EXPECT_EQ(a.report.dropped, b.report.dropped);
  EXPECT_EQ(a.report.attempts_total, b.report.attempts_total);
  EXPECT_EQ(a.report.relocks, b.report.relocks);
  EXPECT_EQ(a.report.sim_time_s, b.report.sim_time_s);
  EXPECT_EQ(a.status.kind(), b.status.kind());
}

TEST(ParallelSweep, JobsCountInvariance) {
  const SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 6);
  const ResilientResponse serial = runFarm(sweep, 1);
  const ResilientResponse parallel = runFarm(sweep, 4);
  expectBitIdentical(serial, parallel);
  EXPECT_GT(serial.report.usable(), 0);
}

TEST(ParallelSweep, DefaultJobsMatchesSerialReference) {
  const SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 5);
  const ResilientResponse serial = runFarm(sweep, 1);
  const ResilientResponse automatic = runFarm(sweep, 0);  // hardware concurrency
  expectBitIdentical(serial, automatic);
}

TEST(ParallelSweep, MergedReportAccountsForEveryPoint) {
  const SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 6);
  const ResilientResponse r = runFarm(sweep, 3);
  EXPECT_EQ(r.report.points_total, 6);
  EXPECT_EQ(r.report.ok + r.report.retried + r.report.degraded + r.report.dropped, 6);
  EXPECT_EQ(r.response.points.size(), 6u);
  EXPECT_GT(r.report.sim_time_s, 0.0);
  EXPECT_GT(r.report.wall_time_s, 0.0);
}

TEST(ParallelSweep, PointsStayInAscendingFrequencyOrder) {
  const SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 6);
  const ResilientResponse r = runFarm(sweep, 4);
  ASSERT_EQ(r.response.points.size(), sweep.modulation_frequencies_hz.size());
  for (std::size_t i = 0; i < r.response.points.size(); ++i)
    EXPECT_EQ(r.response.points[i].modulation_hz, sweep.modulation_frequencies_hz[i]);
}

TEST(ParallelSweep, ProgressCallbackSeesEveryPointExactlyOnce) {
  const SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 5);
  ParallelSweepOptions popt;
  popt.jobs = 3;
  ParallelSweep engine(fastTestConfig(), sweep, popt);
  std::set<std::size_t> seen;  // progress_ is serialised by the farm's mutex
  engine.onPointMeasured([&](std::size_t index, const MeasuredPoint&) { seen.insert(index); });
  (void)engine.run();
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 4u);
}

TEST(ParallelSweep, FaultInjectionDeterministicAcrossJobCounts) {
  // The worker that happens to run a point must not affect its injected
  // fault stream: seeds derive from the point index alone.
  const SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 5);
  const ResilientResponse serial = runFarm(sweep, 1, /*fault_seed=*/42);
  const ResilientResponse parallel = runFarm(sweep, 4, /*fault_seed=*/42);
  expectBitIdentical(serial, parallel);
}

TEST(ParallelSweep, JitterSeedsDeriveFromPointIndex) {
  // Only the pure-sine source applies reference edge jitter.
  SweepOptions sweep = fastSweepOptions(StimulusKind::PureSineFm, 4);
  sweep.jitter_seed = 7;
  const ResilientResponse clean = runFarm(sweep, 1);
  sweep.ref_edge_jitter_rms_s = 1e-6;
  const ResilientResponse serial = runFarm(sweep, 1);
  const ResilientResponse parallel = runFarm(sweep, 4);
  expectBitIdentical(serial, parallel);
  // The jitter reaches every fork (each re-seeds its own stream), so no
  // jittered point measures exactly what the jitter-free sweep did.
  ASSERT_EQ(serial.response.points.size(), clean.response.points.size());
  for (std::size_t i = 0; i < clean.response.points.size(); ++i) {
    const MeasuredPoint& jittered = serial.response.points[i];
    const MeasuredPoint& reference = clean.response.points[i];
    EXPECT_TRUE(jittered.deviation_hz != reference.deviation_hz ||
                jittered.phase_deg != reference.phase_deg)
        << "point " << i;
  }
}

TEST(ParallelSweep, PointSeedIsStableAndDistinct) {
  const uint64_t a0 = pointSeed(1, 0);
  EXPECT_EQ(a0, pointSeed(1, 0));  // pure function
  std::set<uint64_t> seeds;
  for (std::size_t i = 0; i < 64; ++i) seeds.insert(pointSeed(1, i));
  EXPECT_EQ(seeds.size(), 64u);               // no collisions across indices
  EXPECT_NE(pointSeed(1, 0), pointSeed(2, 0));  // base seed matters
  EXPECT_NE(pointSeed(1, 0), 0u);               // never the degenerate seed
}

TEST(ParallelSweep, SinglePointOptionsRestrictToOneFrequency) {
  SweepOptions base = fastSweepOptions(StimulusKind::MultiToneFsk, 5);
  base.jitter_seed = 99;
  const SweepOptions p2 = singlePointOptions(base, 2);
  ASSERT_EQ(p2.modulation_frequencies_hz.size(), 1u);
  EXPECT_EQ(p2.modulation_frequencies_hz[0], base.modulation_frequencies_hz[2]);
  EXPECT_NE(p2.jitter_seed, base.jitter_seed);
  EXPECT_NE(p2.jitter_seed, singlePointOptions(base, 3).jitter_seed);
  EXPECT_EQ(p2.jitter_seed, singlePointOptions(base, 2).jitter_seed);  // reproducible
}

TEST(ParallelSweep, RejectsNegativeJobs) {
  ParallelSweepOptions popt;
  popt.jobs = -2;
  EXPECT_FALSE(popt.check().ok());
  EXPECT_THROW(popt.validate(), std::invalid_argument);
}

TEST(ParallelSweep, RunIsSingleUse) {
  const SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 2);
  ParallelSweep engine(fastTestConfig(), sweep, {});
  (void)engine.run();
  EXPECT_THROW((void)engine.run(), std::logic_error);
}

TEST(ParallelSweep, RequestStopAfterFirstPointIsDeterministicAtOneJob) {
  // Serial farm: stop lands between points, so exactly the triggering point
  // is measured and every later slot is a Cancelled drop.
  const SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 5);
  ParallelSweepOptions popt;
  popt.jobs = 1;
  ParallelSweep engine(fastTestConfig(), sweep, popt);
  engine.onPointMeasured([&](std::size_t, const MeasuredPoint&) { engine.requestStop(); });
  const ResilientResponse r = engine.run();
  ASSERT_EQ(r.response.points.size(), 5u);
  EXPECT_EQ(r.report.points_total, 5);
  EXPECT_EQ(r.report.ok, 1);
  EXPECT_EQ(r.report.dropped, 4);
  EXPECT_EQ(r.status.kind(), Status::Kind::Cancelled);
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(r.response.points[i].quality, PointQuality::Dropped) << "point " << i;
    EXPECT_EQ(r.response.points[i].status.kind(), Status::Kind::Cancelled) << "point " << i;
  }
}

TEST(ParallelSweep, RequestStopMidCampaignDrainsWorkersWithoutDoubleCounting) {
  // Three workers over six points; the first completion trips the stop.
  // Claimed points drain normally, unclaimed points come back as Cancelled
  // drops, and the merged report still accounts for every slot once.
  const SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 6);
  ParallelSweepOptions popt;
  popt.jobs = 3;
  ParallelSweep engine(fastTestConfig(), sweep, popt);
  std::atomic<int> measured{0};
  engine.onPointMeasured([&](std::size_t, const MeasuredPoint&) {
    if (measured.fetch_add(1) == 0) engine.requestStop();
  });
  const ResilientResponse r = engine.run();  // run() joins the pool
  ASSERT_EQ(r.response.points.size(), 6u);
  EXPECT_EQ(r.report.points_total, 6);
  EXPECT_EQ(r.report.ok + r.report.retried + r.report.degraded + r.report.dropped, 6);
  // Workers check the stop token before claiming, so at most the three
  // in-flight points finish: the rest must be cancelled, never simulated.
  EXPECT_GE(r.report.dropped, 3);
  EXPECT_GE(measured.load(), 1);
  EXPECT_LE(measured.load(), 3);
  EXPECT_EQ(r.status.kind(), Status::Kind::Cancelled);
  int cancelled = 0;
  for (const MeasuredPoint& p : r.response.points)
    if (p.status.kind() == Status::Kind::Cancelled) {
      EXPECT_EQ(p.quality, PointQuality::Dropped);
      // A point interrupted mid-measurement consumed one attempt; a point
      // no worker ever claimed consumed none. Never more than one: stop
      // suppresses retries.
      EXPECT_LE(p.attempts, 1);
      ++cancelled;
    }
  EXPECT_EQ(cancelled, r.report.dropped);
}

TEST(ParallelSweep, PreloadedPointsMergeInPlaceAndNeverRun) {
  const SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 4);
  ParallelSweepOptions popt;
  popt.jobs = 1;
  ParallelSweep reference_engine(fastTestConfig(), sweep, popt);
  ResilientResponse point1;  // point 1 exactly as the reference's sink got it
  reference_engine.onPointResult([&](std::size_t index, const ResilientResponse& r) {
    if (index == 1) point1 = r;
    return Status();
  });
  const ResilientResponse reference = reference_engine.run();
  popt.jobs = 2;
  ParallelSweep engine(fastTestConfig(), sweep, popt);
  engine.preload(1, point1);
  std::set<std::size_t> built;
  std::mutex built_mutex;
  engine.onPointTestbench([&](std::size_t index, SweepTestbench&) {
    std::lock_guard<std::mutex> guard(built_mutex);
    built.insert(index);
  });
  std::set<std::size_t> sunk;
  engine.onPointResult([&](std::size_t index, const ResilientResponse&) {
    sunk.insert(index);  // serialised by the farm
    return Status();
  });
  const ResilientResponse r = engine.run();
  EXPECT_EQ(built, (std::set<std::size_t>{0, 2, 3}));
  EXPECT_EQ(sunk, (std::set<std::size_t>{0, 2, 3}));
  expectBitIdentical(r, reference);
  EXPECT_THROW(engine.preload(0, reference), std::logic_error);
}

TEST(ParallelSweep, FullyPreloadedSweepStillCountsThePreludeOnce) {
  // A fully resumed campaign: every point comes from the sink of an
  // earlier run, and the merge still adds the shared prelude exactly once.
  const SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 3);
  ParallelSweepOptions popt;
  popt.jobs = 1;
  ParallelSweep reference_engine(fastTestConfig(), sweep, popt);
  std::vector<ResilientResponse> sunk(3);
  reference_engine.onPointResult([&](std::size_t index, const ResilientResponse& r) {
    sunk[index] = r;
    return Status();
  });
  const ResilientResponse reference = reference_engine.run();
  ParallelSweep engine(fastTestConfig(), sweep, popt);
  for (std::size_t i = 0; i < 3; ++i) engine.preload(i, sunk[i]);
  const ResilientResponse r = engine.run();
  expectBitIdentical(r, reference);
  EXPECT_EQ(r.bench.events_processed, reference.bench.events_processed);
  EXPECT_EQ(r.bench.events_delivered, reference.bench.events_delivered);
}

TEST(ParallelSweep, StopDuringThePreludeLabelsEveryPendingPointOnce) {
  const SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 4);
  ParallelSweepOptions popt;
  popt.jobs = 2;
  ParallelSweep engine(fastTestConfig(), sweep, popt);
  std::atomic<int> forked{0};
  engine.onPointTestbench([&](std::size_t, SweepTestbench&) { ++forked; });
  engine.requestStop();  // trips during the lock wait, before any fork
  const ResilientResponse r = engine.run();
  EXPECT_EQ(forked.load(), 0);
  EXPECT_EQ(r.status.kind(), Status::Kind::Cancelled);
  ASSERT_EQ(r.response.points.size(), 4u);
  EXPECT_EQ(r.report.points_total, 4);
  EXPECT_EQ(r.report.dropped, 4);
  EXPECT_EQ(r.report.attempts_total, 0);
  for (const MeasuredPoint& p : r.response.points)
    EXPECT_EQ(p.status.kind(), Status::Kind::Cancelled);
}

TEST(ParallelSweep, PreloadRejectsMalformedResults) {
  const SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 2);
  ParallelSweep engine(fastTestConfig(), sweep, {});
  EXPECT_THROW(engine.preload(0, ResilientResponse{}), std::invalid_argument);
  ResilientResponse one;
  appendDroppedPoint(one, sweep.modulation_frequencies_hz[0], Status());
  EXPECT_THROW(engine.preload(2, one), std::out_of_range);
}

TEST(ParallelSweep, SinkRunsBeforeProgressAndAnErrorStopsTheFarm) {
  const SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 4);
  ParallelSweepOptions popt;
  popt.jobs = 1;
  ParallelSweep engine(fastTestConfig(), sweep, popt);
  std::vector<std::string> events;
  engine.onPointResult([&](std::size_t index, const ResilientResponse& r) {
    EXPECT_EQ(r.response.points.size(), 1u);
    events.push_back("sink " + std::to_string(index));
    if (index == 1) return Status::make(Status::Kind::Internal, "sink full");
    return Status();
  });
  engine.onPointMeasured([&](std::size_t index, const MeasuredPoint&) {
    events.push_back("measured " + std::to_string(index));
  });
  const ResilientResponse r = engine.run();
  EXPECT_EQ(events, (std::vector<std::string>{"sink 0", "measured 0", "sink 1", "measured 1"}));
  EXPECT_EQ(r.status.kind(), Status::Kind::Internal);
  EXPECT_EQ(r.status.context(), "sink full");
  ASSERT_EQ(r.response.points.size(), 4u);
  for (std::size_t i = 2; i < 4; ++i)
    EXPECT_EQ(r.response.points[i].status.kind(), Status::Kind::Cancelled) << "point " << i;
}

// Differential test of the fork against the slow path it replaces: every
// farm point must equal a standalone single-point engine that runs its own
// prelude, with the farm's bench hook fired at attempt 0 (the moment the
// farm forks). Counts must satisfy farm = P + sum(S_i - P), where P is the
// prelude alone and S_i the standalone run of point i.
using BenchHook = std::function<void(std::size_t, SweepTestbench&)>;

void expectForkMatchesStandalone(const SweepOptions& sweep, const BenchHook& hook) {
  const pll::PllConfig config = fastTestConfig();
  ParallelSweepOptions popt;
  popt.jobs = 2;
  ParallelSweep farm(config, sweep, popt);
  if (hook) farm.onPointTestbench(hook);
  const ResilientResponse merged = farm.run();
  ASSERT_TRUE(merged.status.ok()) << merged.status.toString();

  ResilientSweep source(config, singlePointOptions(sweep, 0));
  const std::unique_ptr<SweepTestbench> source_bench = source.makeBench();
  const ResilientSweep::Prelude prelude = source.runPrelude(*source_bench);
  ASSERT_TRUE(prelude.status.ok());
  EXPECT_EQ(merged.response.nominal_vco_hz, prelude.nominal_vco_hz);
  EXPECT_EQ(merged.response.static_reference_deviation_hz,
            prelude.static_reference_deviation_hz);

  BenchStats want = prelude.end.bench;
  double want_sim_s = prelude.end.sim_time_s;
  SweepQualityReport want_report;
  ASSERT_EQ(merged.response.points.size(), sweep.modulation_frequencies_hz.size());
  for (std::size_t i = 0; i < merged.response.points.size(); ++i) {
    ResilientSweep engine(config, singlePointOptions(sweep, i));
    if (hook)
      engine.onAttemptStart([&](std::size_t, int attempt, SweepTestbench& bench) {
        if (attempt == 0) hook(i, bench);
      });
    const ResilientResponse alone = engine.run();
    ASSERT_EQ(alone.response.points.size(), 1u);
    EXPECT_EQ(alone.response.nominal_vco_hz, prelude.nominal_vco_hz);
    const MeasuredPoint& f = merged.response.points[i];
    const MeasuredPoint& s = alone.response.points.front();
    EXPECT_EQ(f.modulation_hz, s.modulation_hz) << "point " << i;
    EXPECT_EQ(f.deviation_hz, s.deviation_hz) << "point " << i;
    EXPECT_EQ(f.phase_deg, s.phase_deg) << "point " << i;
    EXPECT_EQ(f.unity_gain_deviation_hz, s.unity_gain_deviation_hz) << "point " << i;
    EXPECT_EQ(f.quality, s.quality) << "point " << i;
    EXPECT_EQ(f.attempts, s.attempts) << "point " << i;
    EXPECT_EQ(f.timed_out, s.timed_out) << "point " << i;
    EXPECT_EQ(f.status.toString(), s.status.toString()) << "point " << i;
    want.add(alone.bench.since(prelude.end.bench));
    want_sim_s += alone.report.sim_time_s - prelude.end.sim_time_s;
    want_report.count(s);
    want_report.relocks += alone.report.relocks;
    want_report.relock_failures += alone.report.relock_failures;
  }
  EXPECT_EQ(merged.bench.events_processed, want.events_processed);
  EXPECT_EQ(merged.bench.events_delivered, want.events_delivered);
  EXPECT_EQ(merged.bench.events_dropped, want.events_dropped);
  EXPECT_EQ(merged.bench.events_delayed, want.events_delayed);
  EXPECT_EQ(merged.bench.events_swallowed, want.events_swallowed);
  EXPECT_EQ(merged.bench.fault_benches, want.fault_benches);
  EXPECT_EQ(merged.bench.faults_considered, want.faults_considered);
  EXPECT_EQ(merged.bench.faults_dropped, want.faults_dropped);
  EXPECT_EQ(merged.bench.faults_delayed, want.faults_delayed);
  EXPECT_EQ(merged.bench.faults_glitches, want.faults_glitches);
  EXPECT_EQ(merged.report.sim_time_s, want_sim_s);
  EXPECT_EQ(merged.report.points_total, want_report.points_total);
  EXPECT_EQ(merged.report.ok, want_report.ok);
  EXPECT_EQ(merged.report.retried, want_report.retried);
  EXPECT_EQ(merged.report.degraded, want_report.degraded);
  EXPECT_EQ(merged.report.dropped, want_report.dropped);
  EXPECT_EQ(merged.report.attempts_total, want_report.attempts_total);
  EXPECT_EQ(merged.report.relocks, want_report.relocks);
  EXPECT_EQ(merged.report.relock_failures, want_report.relock_failures);
}

TEST(ParallelSweep, ForkMatchesStandaloneMultiToneFsk) {
  expectForkMatchesStandalone(fastSweepOptions(StimulusKind::MultiToneFsk, 4), nullptr);
}

TEST(ParallelSweep, ForkMatchesStandaloneTwoToneFsk) {
  expectForkMatchesStandalone(fastSweepOptions(StimulusKind::TwoToneFsk, 4), nullptr);
}

TEST(ParallelSweep, ForkMatchesStandaloneDelayLinePm) {
  expectForkMatchesStandalone(fastSweepOptions(StimulusKind::DelayLinePm, 4), nullptr);
}

TEST(ParallelSweep, ForkMatchesStandaloneWithFaultInjector) {
  expectForkMatchesStandalone(
      fastSweepOptions(StimulusKind::MultiToneFsk, 4), [](std::size_t index, SweepTestbench& bench) {
        sim::FaultInjector& inj = bench.faultInjector(pointSeed(23, index));
        inj.dropEdges(bench.stimulusMarker(), 0.2);
        inj.delayEdges(bench.stimulusOut(), 0.05, 1e-6, 5e-6);
      });
}

TEST(TestbenchFactory, BenchesAreIndependent) {
  const SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 2);
  SweepTestbench bench_a(fastTestConfig(), sweep);
  SweepTestbench bench_b(fastTestConfig(), sweep);
  // Advancing one bench's circuit leaves the other untouched.
  bench_a.circuit().run(0.01);
  EXPECT_DOUBLE_EQ(bench_a.circuit().now(), 0.01);
  EXPECT_DOUBLE_EQ(bench_b.circuit().now(), 0.0);
}

}  // namespace
}  // namespace pllbist::bist
