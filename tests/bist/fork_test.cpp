// SweepTestbench::copyStateFrom: a fork of a bench must continue exactly
// as the bench it was forked from would have.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <stdexcept>

#include "bist/delay_line.hpp"
#include "bist/modulator.hpp"
#include "bist/resilient_sweep.hpp"
#include "bist/testbench.hpp"
#include "sim/primitives.hpp"
#include "support/test_configs.hpp"

namespace pllbist::bist {
namespace {

using pllbist::testing::fastSweepOptions;
using pllbist::testing::fastTestConfig;

class BenchFork : public ::testing::TestWithParam<StimulusKind> {};

TEST_P(BenchFork, ForkMeasuresExactlyWhatTheSourceWould) {
  const SweepOptions sweep = fastSweepOptions(GetParam(), 2);
  ResilientSweep engine(fastTestConfig(), sweep);
  const std::unique_ptr<SweepTestbench> source = engine.makeBench();
  const ResilientSweep::Prelude prelude = engine.runPrelude(*source);
  ASSERT_TRUE(prelude.status.ok());
  const std::unique_ptr<SweepTestbench> fork = engine.makeBench();
  fork->copyStateFrom(*source);
  EXPECT_EQ(fork->circuit().now(), source->circuit().now());
  EXPECT_EQ(fork->lockDetector().isLocked(), source->lockDetector().isLocked());

  const ResilientResponse from_fork = engine.runPoints(*fork, prelude, prelude.end);
  const ResilientResponse from_source = engine.runPoints(*source, prelude, prelude.end);
  ASSERT_EQ(from_fork.response.points.size(), 2u);
  ASSERT_EQ(from_source.response.points.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const MeasuredPoint& f = from_fork.response.points[i];
    const MeasuredPoint& s = from_source.response.points[i];
    EXPECT_EQ(f.deviation_hz, s.deviation_hz) << "point " << i;
    EXPECT_EQ(f.phase_deg, s.phase_deg) << "point " << i;
    EXPECT_EQ(f.quality, s.quality) << "point " << i;
    EXPECT_EQ(f.attempts, s.attempts) << "point " << i;
  }
  EXPECT_GT(from_fork.bench.events_processed, 0u);
  EXPECT_EQ(from_fork.bench.events_processed, from_source.bench.events_processed);
  EXPECT_EQ(from_fork.bench.events_delivered, from_source.bench.events_delivered);
  EXPECT_EQ(from_fork.bench.events_swallowed, from_source.bench.events_swallowed);
  EXPECT_EQ(from_fork.report.sim_time_s, from_source.report.sim_time_s);
  EXPECT_EQ(fork->circuit().now(), source->circuit().now());
}

INSTANTIATE_TEST_SUITE_P(Stimuli, BenchFork,
                         ::testing::Values(StimulusKind::MultiToneFsk, StimulusKind::TwoToneFsk,
                                           StimulusKind::PureSineFm, StimulusKind::DelayLinePm),
                         [](const ::testing::TestParamInfo<StimulusKind>& info) {
                           switch (info.param) {
                             case StimulusKind::MultiToneFsk: return "MultiToneFsk";
                             case StimulusKind::TwoToneFsk: return "TwoToneFsk";
                             case StimulusKind::PureSineFm: return "PureSineFm";
                             case StimulusKind::DelayLinePm: return "DelayLinePm";
                           }
                           return "Unknown";
                         });

/// A fork taken while both phase detectors are mid-pulse, inside the loop
/// PFD's reset window, must carry their state: a REF edge aimed into that
/// window (the loop PFD ignores it) and the monitor's pending resets then
/// play out in the fork exactly as in the source. A fork at the prelude's
/// end, as the farm takes it, finds both detectors idle.
TEST(BenchForkMidPulse, ForkInsideAResetWindowMeasuresExactlyWhatTheSourceWould) {
  const SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 1);
  ResilientSweep engine(fastTestConfig(), sweep);
  const std::unique_ptr<SweepTestbench> source = engine.makeBench();
  const ResilientSweep::Prelude prelude = engine.runPrelude(*source);
  ASSERT_TRUE(prelude.status.ok());
  sim::Circuit& c = source->circuit();
  /// The loop PFD's output levels, heard through a tap (the loop writes
  /// its UP/DN nets only while they are observed). While the step loop
  /// below polls them, every change ends the loop's run-ahead.
  struct PumpLevels : pll::LoopTap {
    bool up = false;
    bool dn = false;
    bool polled = true;
    bool pumpChanged(bool is_dn, bool high, double) override {
      (is_dn ? dn : up) = high;
      return polled;
    }
  } levels;
  source->pll().addTap(levels);
  // Step to the instant both loop outputs are high: the reset AND has just
  // seen them and its window opens and_delay later.
  while (!(levels.up && levels.dn)) ASSERT_TRUE(c.step());
  levels.polled = false;
  const pll::PfdDelays& d = fastTestConfig().pfd;
  // A stimulus glitch whose rising edge reaches PLLREF (one mux delay on)
  // midway through the window.
  const double t_ref = c.now() + d.and_delay_s + 0.5 * d.ff_reset_to_q_s;
  const sim::SignalId stim = source->stimulusOut();
  const bool level = c.value(stim);
  const double t_rise = t_ref - 1e-9;
  c.scheduleSet(stim, level ? t_rise - 2e-9 : t_rise, !level);
  c.scheduleSet(stim, level ? t_rise : t_rise + 2e-9, level);

  const std::unique_ptr<SweepTestbench> fork = engine.makeBench();
  fork->copyStateFrom(*source);
  const ResilientResponse from_fork = engine.runPoints(*fork, prelude, prelude.end);
  const ResilientResponse from_source = engine.runPoints(*source, prelude, prelude.end);
  ASSERT_EQ(from_fork.response.points.size(), 1u);
  ASSERT_EQ(from_source.response.points.size(), 1u);
  EXPECT_EQ(from_fork.response.points[0].deviation_hz, from_source.response.points[0].deviation_hz);
  EXPECT_EQ(from_fork.response.points[0].phase_deg, from_source.response.points[0].phase_deg);
  EXPECT_EQ(from_fork.bench.events_processed, from_source.bench.events_processed);
  EXPECT_EQ(from_fork.bench.events_delivered, from_source.bench.events_delivered);
  EXPECT_EQ(from_fork.bench.events_swallowed, from_source.bench.events_swallowed);
}

TEST(BenchForkJitter, EachForkDrawsFromItsOwnSeed) {
  SweepOptions sweep = fastSweepOptions(StimulusKind::PureSineFm, 1);
  sweep.ref_edge_jitter_rms_s = 1e-6;
  sweep.jitter_seed = 11;
  ResilientSweep engine(fastTestConfig(), sweep);
  const std::unique_ptr<SweepTestbench> source = engine.makeBench();
  const ResilientSweep::Prelude prelude = engine.runPrelude(*source);
  ASSERT_TRUE(prelude.status.ok());
  auto measureFork = [&](unsigned seed) {
    SweepOptions options = sweep;
    options.jitter_seed = seed;
    SweepTestbench fork(fastTestConfig(), options);
    fork.copyStateFrom(*source);
    return engine.runPoints(fork, prelude, prelude.end).response.points.front();
  };
  const MeasuredPoint a = measureFork(12);
  const MeasuredPoint again = measureFork(12);
  const MeasuredPoint b = measureFork(13);
  EXPECT_EQ(a.deviation_hz, again.deviation_hz);
  EXPECT_EQ(a.phase_deg, again.phase_deg);
  EXPECT_TRUE(a.deviation_hz != b.deviation_hz || a.phase_deg != b.phase_deg);
}

/// One stepped stimulus program on its own circuit, wired as the bench
/// wires it: the FSK program on a DCO, or the PM program on a delay line
/// behind a reference clock. Recorders on the stimulus and marker nets see
/// every slot setting (the DCO's edges follow its modulus, the line's
/// edges its tap) and every crest marker.
struct ProgramBench {
  sim::Circuit c;
  sim::SignalId out = c.addSignal("stimulus");
  sim::SignalId marker = c.addSignal("marker");
  std::unique_ptr<Dco> dco;
  std::unique_ptr<sim::ClockSource> clock;
  std::unique_ptr<SlotProgram> program;
  sim::EdgeRecorder out_edges{c, out};
  sim::EdgeRecorder marker_edges{c, marker};

  explicit ProgramBench(StimulusKind kind) {
    if (kind == StimulusKind::DelayLinePm) {
      const sim::SignalId raw = c.addSignal("raw_ref");
      clock = std::make_unique<sim::ClockSource>(c, raw, 1e-3);
      DelayLineModulator::Config cfg;
      cfg.taps = 9;
      cfg.tap_delay_s = 5e-6;
      program = std::make_unique<DelayLineModulator>(c, raw, out, marker, cfg);
    } else {
      dco = std::make_unique<Dco>(c, out, Dco::Config{1e6, 1000, 0.0});
      FskModulator::Config cfg;
      cfg.waveform = kind == StimulusKind::TwoToneFsk ? StimulusWaveform::TwoToneFsk
                                                      : StimulusWaveform::MultiToneFsk;
      program = std::make_unique<FskModulator>(c, *dco, marker, cfg);
    }
  }

  void copyStateFrom(const ProgramBench& source) {
    c.copyStateFrom(source.c);
    if (dco) dco->copyStateFrom(*source.dco);
    if (clock) clock->copyStateFrom(*source.clock);
    program->copyStateFrom(*source.program);
  }
};

/// Fork `source` now and run both benches on to `t_end`: the fork must
/// produce the uninterrupted program's slot settings and marker edges,
/// edge for edge, and the same kernel counts.
void expectForkContinuesTheProgram(ProgramBench& source, StimulusKind kind, double t_end) {
  ProgramBench fork(kind);
  fork.copyStateFrom(source);
  EXPECT_EQ(fork.program->running(), source.program->running());
  EXPECT_EQ(fork.program->modulationHz(), source.program->modulationHz());
  source.out_edges.clear();
  source.marker_edges.clear();
  source.c.run(t_end);
  fork.c.run(t_end);
  ASSERT_GE(source.marker_edges.risingEdges().size(), 2u);
  ASSERT_GE(source.out_edges.risingEdges().size(), 100u);
  EXPECT_EQ(fork.out_edges.risingEdges(), source.out_edges.risingEdges());
  EXPECT_EQ(fork.out_edges.fallingEdges(), source.out_edges.fallingEdges());
  EXPECT_EQ(fork.marker_edges.risingEdges(), source.marker_edges.risingEdges());
  EXPECT_EQ(fork.marker_edges.fallingEdges(), source.marker_edges.fallingEdges());
  EXPECT_EQ(fork.c.deliveredEventCount(), source.c.deliveredEventCount());
  EXPECT_EQ(fork.c.swallowedEventCount(), source.c.swallowedEventCount());
}

class SlotProgramFork : public ::testing::TestWithParam<StimulusKind> {
 protected:
  std::mt19937_64 rng{97u + static_cast<unsigned>(GetParam())};
  double uniform(double lo, double hi) { return std::uniform_real_distribution<double>(lo, hi)(rng); }
};

TEST_P(SlotProgramFork, RunningProgramForkedMidPeriod) {
  ProgramBench source(GetParam());
  const double period = 1.0 / 20.0;
  source.program->start(20.0);
  source.c.run(uniform(1.0, 2.0) * period);
  expectForkContinuesTheProgram(source, GetParam(), source.c.now() + 3.0 * period);
}

/// A restart leaves the old program's slot and marker events queued; the
/// fork must supersede them exactly as the source does.
TEST_P(SlotProgramFork, RestartedProgramForkedBeforeTheOldEventsDrain) {
  ProgramBench source(GetParam());
  const double old_slot = 1.0 / (13.0 * 10.0);
  source.program->start(13.0);
  source.c.run(uniform(1.0, 2.0) / 13.0);
  source.program->start(20.0);
  source.c.run(source.c.now() + uniform(0.1, 0.9) * old_slot);
  expectForkContinuesTheProgram(source, GetParam(), source.c.now() + 3.0 / 20.0);
}

INSTANTIATE_TEST_SUITE_P(Programs, SlotProgramFork,
                         ::testing::Values(StimulusKind::MultiToneFsk, StimulusKind::TwoToneFsk,
                                           StimulusKind::DelayLinePm),
                         [](const ::testing::TestParamInfo<StimulusKind>& info) {
                           switch (info.param) {
                             case StimulusKind::MultiToneFsk: return "MultiToneFsk";
                             case StimulusKind::TwoToneFsk: return "TwoToneFsk";
                             case StimulusKind::DelayLinePm: return "DelayLinePm";
                             default: return "Unknown";
                           }
                         });

TEST(BenchForkRejects, PointInFlight) {
  const SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 2);
  SweepTestbench source(fastTestConfig(), sweep);
  source.circuit().run(0.01);
  source.sequencer().measurePoint(sweep.modulation_frequencies_hz[0],
                                  [](TestSequencer::PointResult) {});
  SweepTestbench fork(fastTestConfig(), sweep);
  EXPECT_THROW(fork.copyStateFrom(source), std::logic_error);
}

TEST(BenchForkRejects, FaultInjectorOnTheSource) {
  const SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 2);
  SweepTestbench source(fastTestConfig(), sweep);
  source.faultInjector(1);
  SweepTestbench fork(fastTestConfig(), sweep);
  EXPECT_THROW(fork.copyStateFrom(source), std::logic_error);
}

TEST(BenchForkRejects, BenchesBuiltDifferently) {
  SweepTestbench source(fastTestConfig(), fastSweepOptions(StimulusKind::MultiToneFsk, 2));
  SweepTestbench pm(fastTestConfig(), fastSweepOptions(StimulusKind::DelayLinePm, 2));
  EXPECT_THROW(pm.copyStateFrom(source), std::logic_error);
  SweepTestbench fork(fastTestConfig(), fastSweepOptions(StimulusKind::MultiToneFsk, 2));
  EXPECT_NO_THROW(fork.copyStateFrom(source));
}

}  // namespace
}  // namespace pllbist::bist
