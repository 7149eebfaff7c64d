#include "bist/sequencer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "bist/dco.hpp"
#include "bist/modulator.hpp"
#include "bist/peak_detector.hpp"
#include "common/units.hpp"
#include "pll/sources.hpp"
#include "support/test_configs.hpp"
#include "support/tolerance.hpp"

namespace pllbist::bist {
namespace {

using pllbist::testing::fastTestConfig;

/// Full Figure 6 testbench around the fast test PLL with a DCO stimulus.
struct SequencerBench {
  pll::PllConfig cfg = fastTestConfig();
  sim::Circuit c;
  sim::SignalId ext_ref;
  sim::SignalId stim;
  sim::SignalId marker;
  Dco dco;
  FskModulator modulator;
  pll::CpPll pll;
  PeakDetector detector;
  TestSequencer sequencer;

  static TestSequencer::Options options() {
    TestSequencer::Options o;
    o.freq_gate_s = 0.05;
    o.hold_to_gate_delay_s = 2e-4;
    return o;
  }

  static FskModulator::Config modConfig(const pll::PllConfig& cfg) {
    FskModulator::Config m;
    m.steps = 10;
    m.nominal_hz = cfg.ref_frequency_hz;
    m.deviation_hz = 100.0;
    return m;
  }

  SequencerBench()
      : ext_ref(c.addSignal("ext")),
        stim(c.addSignal("stim")),
        marker(c.addSignal("marker")),
        dco(c, stim, Dco::Config{10e6, 1000, 0.0}),
        modulator(c, dco, marker, modConfig(cfg)),
        pll(c, ext_ref, stim, cfg),
        detector(c, pll),
        sequencer(c, pll,
                  StimulusHooks{[this](double fm) { modulator.start(fm); },
                                [this] { modulator.stop(); }, [this] { modulator.park(); }},
                  detector, marker, 10e6, options()) {
    pll.setTestMode(true);
    c.run(0.05);  // lock
  }

  template <typename F>
  void waitUntil(F&& flag) {
    while (!flag()) ASSERT_TRUE(c.step());
  }
};

TEST(TestSequencerOptions, Validation) {
  TestSequencer::Options o;
  o.settle_periods = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = TestSequencer::Options{};
  o.freq_gate_s = 0.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = TestSequencer::Options{};
  o.timeout_periods = 2.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
}

TEST(TestSequencer, MeasureNominalCountsCarrier) {
  SequencerBench b;
  double hz = 0.0;
  bool done = false;
  b.sequencer.measureNominal([&](double f) {
    hz = f;
    done = true;
  });
  b.waitUntil([&] { return done; });
  EXPECT_NEAR(hz, b.cfg.nominalVcoHz(), 25.0);  // gate quantisation
}

TEST(TestSequencer, StaticReferenceSeesFullDeviation) {
  SequencerBench b;
  double hz = 0.0;
  bool done = false;
  b.sequencer.measureStaticReference(0.05, [&](double f) {
    hz = f;
    done = true;
  });
  b.waitUntil([&] { return done; });
  // H(0) = 1: parked +100 Hz on the reference appears as +N*100 at the VCO.
  EXPECT_NEAR(hz - b.cfg.nominalVcoHz(), 100.0 * b.cfg.divider_n, 60.0);
}

TEST(TestSequencer, PointMeasurementCompletesWithPlausibleValues) {
  SequencerBench b;
  TestSequencer::PointResult r;
  bool done = false;
  const double fm = 200.0;  // at fn
  b.sequencer.measurePoint(fm, [&](TestSequencer::PointResult pr) {
    r = std::move(pr);
    done = true;
  });
  b.waitUntil([&] { return done; });
  EXPECT_FALSE(r.timed_out);
  EXPECT_EQ(static_cast<int>(r.phase_counts.size()), b.sequencer.options().average_periods);
  // Phase near the capacitor-node -90 degrees at fn.
  EXPECT_PHASE_NEAR_DEG(r.phase_deg, -90.0, 25.0);
  // Held deviation ~ |H_cap(fn)| * N * 100 Hz = 1.177 * 1000.
  const double dev = r.held_frequency_hz - b.cfg.nominalVcoHz();
  EXPECT_NEAR(dev, 1177.0, 250.0);
  EXPECT_GT(r.hold_time_s, 0.0);
  EXPECT_EQ(b.sequencer.stage(), TestSequencer::Stage::Idle);
}

TEST(TestSequencer, HoldReleasedAfterPoint) {
  SequencerBench b;
  bool done = false;
  b.sequencer.measurePoint(200.0, [&](TestSequencer::PointResult) { done = true; });
  b.waitUntil([&] { return done; });
  b.c.run(b.c.now());  // drain the same-time hold-release event
  EXPECT_FALSE(b.pll.holdAsserted());
}

TEST(TestSequencer, SequentialPointsWork) {
  SequencerBench b;
  for (double fm : {100.0, 200.0, 400.0}) {
    bool done = false;
    TestSequencer::PointResult r;
    b.sequencer.measurePoint(fm, [&](TestSequencer::PointResult pr) {
      r = std::move(pr);
      done = true;
    });
    b.waitUntil([&] { return done; });
    EXPECT_FALSE(r.timed_out) << fm;
  }
}

TEST(TestSequencer, BusyRejectsConcurrentRequests) {
  SequencerBench b;
  b.sequencer.measurePoint(200.0, [](TestSequencer::PointResult) {});
  EXPECT_THROW(b.sequencer.measurePoint(300.0, [](TestSequencer::PointResult) {}),
               std::logic_error);
  EXPECT_THROW(b.sequencer.measureNominal([](double) {}), std::logic_error);
  EXPECT_THROW(b.sequencer.measureStaticReference(0.1, [](double) {}), std::logic_error);
}

TEST(TestSequencer, InvalidInputsThrow) {
  SequencerBench b;
  EXPECT_THROW(b.sequencer.measurePoint(0.0, [](TestSequencer::PointResult) {}),
               std::invalid_argument);
  EXPECT_THROW(b.sequencer.measureStaticReference(0.0, [](double) {}), std::invalid_argument);
}

TEST(TestSequencer, WatchdogFiresOnDeadDetector) {
  // Deaf peak detector: wire it to PLLREF alone, so its feedback input
  // stays low and it never sees reversals. The sequencer must time out
  // instead of hanging.
  pll::PllConfig cfg = fastTestConfig();
  sim::Circuit c;
  const auto ext = c.addSignal("ext");
  const auto stim = c.addSignal("stim");
  const auto marker = c.addSignal("marker");
  Dco dco(c, stim, Dco::Config{10e6, 1000, 0.0});
  FskModulator mod(c, dco, marker, SequencerBench::modConfig(cfg));
  pll::CpPll pll(c, ext, stim, cfg);
  pll.setTestMode(true);
  PeakDetector det(c, cfg.pfd, PeakDetectorDelays{});
  c.onRisingEdge(pll.ref(), [&det](double t) { det.inputRose(false, t); });
  TestSequencer seq(c, pll,
                    StimulusHooks{[&](double fm) { mod.start(fm); }, [&] { mod.stop(); },
                                  [&] { mod.park(); }},
                    det, marker, 10e6, SequencerBench::options());
  c.run(0.05);
  TestSequencer::PointResult r;
  bool done = false;
  seq.measurePoint(200.0, [&](TestSequencer::PointResult pr) {
    r = std::move(pr);
    done = true;
  });
  while (!done) ASSERT_TRUE(c.step());
  EXPECT_TRUE(r.timed_out);
  EXPECT_EQ(seq.stage(), TestSequencer::Stage::Idle);
}

TEST(TestSequencer, WorksWithPureSineStimulus) {
  pll::PllConfig cfg = fastTestConfig();
  sim::Circuit c;
  const auto ext = c.addSignal("ext");
  const auto stim = c.addSignal("stim");
  const auto marker = c.addSignal("marker");
  pll::SineFmSource::Config scfg;
  scfg.nominal_hz = cfg.ref_frequency_hz;
  pll::SineFmSource src(c, stim, marker, scfg);
  pll::CpPll pll(c, ext, stim, cfg);
  pll.setTestMode(true);
  PeakDetector det(c, pll);
  TestSequencer seq(c, pll,
                    StimulusHooks{[&](double fm) { src.setModulation(fm, 100.0); },
                                  [&] {
                                    src.setModulation(0.0, 0.0);
                                    src.setCarrier(cfg.ref_frequency_hz);
                                  },
                                  [&] {
                                    src.setModulation(0.0, 0.0);
                                    src.setCarrier(cfg.ref_frequency_hz + 100.0);
                                  }},
                    det, marker, 10e6, SequencerBench::options());
  c.run(0.05);
  bool done = false;
  TestSequencer::PointResult r;
  seq.measurePoint(200.0, [&](TestSequencer::PointResult pr) {
    r = std::move(pr);
    done = true;
  });
  while (!done) ASSERT_TRUE(c.step());
  EXPECT_FALSE(r.timed_out);
  EXPECT_PHASE_NEAR_DEG(r.phase_deg, -90.0, 20.0);
}

}  // namespace
}  // namespace pllbist::bist
