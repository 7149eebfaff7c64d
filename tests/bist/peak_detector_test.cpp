#include "bist/peak_detector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "bist/parallel_sweep.hpp"
#include "bist/testbench.hpp"
#include "common/units.hpp"
#include "pll/cppll.hpp"
#include "pll/probes.hpp"
#include "pll/sources.hpp"
#include "sim/circuit.hpp"
#include "sim/primitives.hpp"
#include "sim/trace.hpp"
#include "support/test_configs.hpp"

namespace pllbist::bist {
namespace {

using pllbist::testing::fastTestConfig;

TEST(PeakDetectorDelays, Validation) {
  PeakDetectorDelays d;
  EXPECT_NO_THROW(d.validate());
  d.clock_delay_s = 0.0;
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d = PeakDetectorDelays{};
  d.inverter_delay_s = d.clock_delay_s;  // must exceed clock delay
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

/// Open-loop truth table: drive REF/FB pulse trains directly.
struct OpenLoopBench {
  sim::Circuit c;
  sim::SignalId ref;
  sim::SignalId fb;
  PeakDetector det;

  OpenLoopBench()
      : ref(c.addSignal("ref")),
        fb(c.addSignal("fb")),
        det(c, pll::PfdDelays{}, PeakDetectorDelays{}) {
    c.onRisingEdge(ref, [this](double t) { det.inputRose(false, t); });
    c.onRisingEdge(fb, [this](double t) { det.inputRose(true, t); });
  }

  void drive(int cycles, double period, double skew, double start) {
    for (int k = 0; k < cycles; ++k) {
      const double t = start + k * period;
      c.scheduleSet(ref, t, true);
      c.scheduleSet(ref, t + period / 2, false);
      c.scheduleSet(fb, t + skew, true);
      c.scheduleSet(fb, t + skew + period / 2, false);
    }
    c.run(start + (cycles + 1) * period);
  }
};

TEST(PeakDetector, MfreqHighWhileRefLeads) {
  OpenLoopBench b;
  b.drive(10, 100e-6, 5e-6, 1e-5);  // fb lags -> ref leads
  EXPECT_TRUE(b.c.value(b.det.mfreq()));
}

TEST(PeakDetector, MfreqLowWhileRefLags) {
  OpenLoopBench b;
  b.drive(10, 100e-6, -5e-6, 1e-5);  // fb leads
  EXPECT_FALSE(b.c.value(b.det.mfreq()));
}

TEST(PeakDetector, TransitionOnLeadLagReversal) {
  OpenLoopBench b;
  sim::EdgeRecorder mfreq(b.c, b.det.mfreq());
  b.drive(10, 100e-6, 5e-6, 1e-5);
  b.drive(10, 100e-6, -5e-6, b.c.now() + 1e-5);
  ASSERT_FALSE(mfreq.fallingEdges().empty());
  EXPECT_FALSE(b.c.value(b.det.mfreq()));
}

TEST(PeakDetector, GlitchesDoNotCorruptSample) {
  // Aligned inputs (dead-zone glitches only): MFREQ must hold its previous
  // state, not chatter.
  OpenLoopBench b;
  b.drive(5, 100e-6, 5e-6, 1e-5);  // establish MFREQ = 1
  sim::EdgeRecorder mfreq(b.c, b.det.mfreq());
  b.drive(20, 100e-6, 0.0, b.c.now() + 1e-5);
  // The tiny residual skews inside the glitch window may sample either way
  // once, but there must be no per-cycle chatter.
  EXPECT_LE(mfreq.risingEdges().size() + mfreq.fallingEdges().size(), 2u);
}

TEST(PeakDetector, CallbacksFireOnExtremes) {
  OpenLoopBench b;
  int maxima = 0, minima = 0;
  b.det.onMaxFrequency([&](double) { ++maxima; });
  b.det.onMinFrequency([&](double) { ++minima; });
  b.drive(5, 100e-6, 5e-6, 1e-5);
  b.drive(5, 100e-6, -5e-6, b.c.now() + 1e-5);
  b.drive(5, 100e-6, 5e-6, b.c.now() + 1e-5);
  EXPECT_GE(maxima, 1);
  EXPECT_GE(minima, 2);  // initial rise + the final reversal
}

/// Closed-loop check of the headline claim: MFREQ falling edges coincide
/// with the capacitor-voltage (held-frequency) maxima during sinusoidal FM.
TEST(PeakDetector, MarksCapacitorVoltageMaximaInClosedLoop) {
  const pll::PllConfig cfg = fastTestConfig();
  sim::Circuit c;
  const auto ext = c.addSignal("ext");
  const auto stim = c.addSignal("stim");
  pll::SineFmSource::Config scfg;
  scfg.nominal_hz = cfg.ref_frequency_hz;
  pll::SineFmSource src(c, stim, scfg);
  sim::SourceDriver drive(c, src);
  pll::CpPll pll(c, ext, stim, cfg);
  pll.setTestMode(true);
  PeakDetector det(c, pll);
  c.run(0.05);

  const double fm = 150.0;
  src.setModulation(fm, 100.0);
  c.run(c.now() + 6.0 / fm);

  sim::Trace vc("vc");
  pll::AnalogProbe probe(c, [&] { return pll.filter().capVoltage(c.now()); }, vc, 2e-5, c.now());
  std::vector<double> max_events;
  det.onMaxFrequency([&](double t) { max_events.push_back(t); });
  c.run(c.now() + 3.0 / fm);

  ASSERT_GE(max_events.size(), 2u);
  // For each detected maximum, vc at that time must be close to the local
  // maximum of vc within half a modulation period around it.
  for (double t : max_events) {
    if (t - 0.5 / fm < vc.times().front() || t + 0.5 / fm > vc.times().back()) continue;
    double local_max = -1e9, local_min = 1e9;
    for (size_t i = 0; i < vc.size(); ++i) {
      if (std::abs(vc.times()[i] - t) > 0.5 / fm) continue;
      local_max = std::max(local_max, vc.values()[i]);
      local_min = std::min(local_min, vc.values()[i]);
    }
    const double swing = local_max - local_min;
    ASSERT_GT(swing, 0.0);
    EXPECT_GT(vc.at(t), local_max - 0.12 * swing) << "detector fired away from the vc crest";
  }
}


/// MFREQ's edges on every point of the fast three-point multi-tone farm
/// sweep, and the sweep's kernel counts; with `marker_rule`, each fork
/// attaches a fault injector whose only rule (drop probability 0) names
/// the stimulus marker.
struct MfreqSweep {
  std::vector<std::vector<double>> rising, falling;
  uint64_t processed = 0;
  uint64_t swallowed = 0;
};

MfreqSweep mfreqOverFarmSweep(bool marker_rule) {
  ParallelSweepOptions popt;
  popt.jobs = 1;
  ParallelSweep farm(fastTestConfig(), testing::fastSweepOptions(StimulusKind::MultiToneFsk, 3),
                     popt);
  std::vector<std::unique_ptr<sim::EdgeRecorder>> recorders;
  farm.onPointTestbench([&](std::size_t, SweepTestbench& bench) {
    if (marker_rule) bench.faultInjector(7).dropEdges(bench.stimulusMarker(), 0.0);
    recorders.push_back(std::make_unique<sim::EdgeRecorder>(bench.circuit(), bench.mfreq()));
  });
  const ResilientResponse r = farm.run();
  MfreqSweep out;
  for (const auto& rec : recorders) {
    out.rising.push_back(rec->risingEdges());
    out.falling.push_back(rec->fallingEdges());
  }
  out.processed = r.bench.events_processed;
  out.swallowed = r.bench.events_swallowed;
  return out;
}

TEST(PeakDetector, NoChangeMfreqWritesSkippedUnderARuleOnAnotherNet) {
  // A fault rule on another net cannot drop or delay an MFREQ write, so
  // the detector still skips the writes that cannot change MFREQ.
  const MfreqSweep plain = mfreqOverFarmSweep(false);
  const MfreqSweep ruled = mfreqOverFarmSweep(true);
  ASSERT_EQ(ruled.rising.size(), 3u);
  EXPECT_EQ(ruled.rising, plain.rising);
  EXPECT_EQ(ruled.falling, plain.falling);
  EXPECT_GT(ruled.rising[0].size(), 2u);
  EXPECT_EQ(ruled.swallowed, 0u);
  EXPECT_EQ(ruled.processed, plain.processed);
}

}  // namespace
}  // namespace pllbist::bist
