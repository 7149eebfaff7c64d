#include "pll/sources.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dsp/resample.hpp"
#include "sim/circuit.hpp"
#include "sim/primitives.hpp"

namespace pllbist::pll {
namespace {

struct SourceBench {
  sim::Circuit c;
  sim::SignalId out;
  sim::SignalId marker;

  SourceBench() : out(c.addSignal("out")), marker(c.addSignal("marker")) {}
};

SineFmSource::Config cwConfig(double f = 1000.0) {
  SineFmSource::Config cfg;
  cfg.nominal_hz = f;
  return cfg;
}

TEST(SineFmSource, ConfigValidation) {
  SineFmSource::Config cfg = cwConfig();
  cfg.nominal_hz = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = cwConfig();
  cfg.deviation_hz = 2000.0;  // >= nominal
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = cwConfig();
  cfg.modulation_hz = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = cwConfig();
  cfg.marker_pulse_s = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(SineFmSource, UnmodulatedCarrierFrequency) {
  SourceBench b;
  SineFmSource src(b.c, b.out, b.marker, cwConfig(1000.0));
  sim::EdgeRecorder rec(b.c, b.out);
  b.c.run(0.05);
  const auto& rises = rec.risingEdges();
  ASSERT_GE(rises.size(), 10u);
  EXPECT_NEAR(rises[5] - rises[4], 1e-3, 1e-9);
  EXPECT_TRUE(rec.fallingEdges().size() > 0);  // square wave, both edges
}

TEST(SineFmSource, ModulationSwingsInstantaneousFrequency) {
  SourceBench b;
  SineFmSource::Config cfg = cwConfig(1000.0);
  cfg.deviation_hz = 100.0;
  cfg.modulation_hz = 10.0;
  SineFmSource src(b.c, b.out, b.marker, cfg);
  sim::EdgeRecorder rec(b.c, b.out);
  b.c.run(0.5);
  auto freqs = dsp::frequencyFromEdges(rec.risingEdges());
  double lo = 1e12, hi = 0.0;
  for (const auto& p : freqs) {
    lo = std::min(lo, p.value);
    hi = std::max(hi, p.value);
  }
  EXPECT_NEAR(hi, 1100.0, 15.0);
  EXPECT_NEAR(lo, 900.0, 15.0);
}

TEST(SineFmSource, InstantaneousFrequencyFormula) {
  SourceBench b;
  SineFmSource::Config cfg = cwConfig(1000.0);
  cfg.deviation_hz = 50.0;
  cfg.modulation_hz = 5.0;
  SineFmSource src(b.c, b.out, b.marker, cfg);
  // Peak at a quarter modulation period.
  EXPECT_NEAR(src.instantaneousFrequency(0.05), 1050.0, 1e-9);
  EXPECT_NEAR(src.instantaneousFrequency(0.15), 950.0, 1e-9);
  EXPECT_NEAR(src.instantaneousFrequency(0.2), 1000.0, 1e-6);
}

TEST(SineFmSource, PeakMarkersSpacedOneModulationPeriod) {
  SourceBench b;
  SineFmSource::Config cfg = cwConfig(1000.0);
  cfg.deviation_hz = 100.0;
  cfg.modulation_hz = 20.0;
  SineFmSource src(b.c, b.out, b.marker, cfg);
  sim::EdgeRecorder rec(b.c, b.marker);
  b.c.run(0.5);
  const auto& rises = rec.risingEdges();
  ASSERT_GE(rises.size(), 5u);
  EXPECT_NEAR(rises[0], 0.25 / 20.0, 1e-9);  // first crest at T/4
  for (size_t i = 1; i < rises.size(); ++i)
    EXPECT_NEAR(rises[i] - rises[i - 1], 1.0 / 20.0, 1e-9);
}

TEST(SineFmSource, MarkerAlignsWithFrequencyCrest) {
  SourceBench b;
  SineFmSource::Config cfg = cwConfig(2000.0);
  cfg.deviation_hz = 200.0;
  cfg.modulation_hz = 10.0;
  SineFmSource src(b.c, b.out, b.marker, cfg);
  sim::EdgeRecorder marker(b.c, b.marker);
  b.c.run(0.3);
  ASSERT_FALSE(marker.risingEdges().empty());
  for (double t : marker.risingEdges())
    EXPECT_NEAR(src.instantaneousFrequency(t), 2200.0, 1.0);
}

TEST(SineFmSource, SetModulationRestartsEpochAndMarkers) {
  SourceBench b;
  SineFmSource src(b.c, b.out, b.marker, cwConfig(1000.0));
  b.c.run(0.1);
  src.setModulation(50.0, 100.0);
  sim::EdgeRecorder marker(b.c, b.marker);
  b.c.run(0.1 + 0.1);
  ASSERT_GE(marker.risingEdges().size(), 2u);
  EXPECT_NEAR(marker.risingEdges()[0], 0.1 + 0.25 / 50.0, 1e-9);
}

TEST(SineFmSource, StopModulationSilencesMarkers) {
  SourceBench b;
  SineFmSource::Config cfg = cwConfig(1000.0);
  cfg.deviation_hz = 100.0;
  cfg.modulation_hz = 20.0;
  SineFmSource src(b.c, b.out, b.marker, cfg);
  b.c.run(0.2);
  src.setModulation(0.0, 0.0);
  sim::EdgeRecorder marker(b.c, b.marker);
  b.c.run(0.4);
  EXPECT_TRUE(marker.risingEdges().empty());
}

TEST(SineFmSource, SetCarrierChangesFrequency) {
  SourceBench b;
  SineFmSource src(b.c, b.out, b.marker, cwConfig(1000.0));
  b.c.run(0.02);
  src.setCarrier(1500.0);
  sim::EdgeRecorder rec(b.c, b.out);
  b.c.run(0.08);
  auto freqs = dsp::frequencyFromEdges(rec.risingEdges());
  ASSERT_FALSE(freqs.empty());
  EXPECT_NEAR(freqs.back().value, 1500.0, 5.0);
  EXPECT_THROW(src.setCarrier(-1.0), std::invalid_argument);
}

TEST(SineFmSource, SetModulationValidation) {
  SourceBench b;
  SineFmSource src(b.c, b.out, b.marker, cwConfig(1000.0));
  EXPECT_THROW(src.setModulation(-5.0, 10.0), std::invalid_argument);
  EXPECT_THROW(src.setModulation(5.0, 2000.0), std::invalid_argument);
}


TEST(SineFmSourceJitter, ConfigValidation) {
  SourceBench b;
  SineFmSource::Config cfg = cwConfig(1000.0);
  cfg.edge_jitter_rms_s = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = cwConfig(1000.0);
  cfg.edge_jitter_rms_s = 1e-4;  // 10% of the period: too much
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.edge_jitter_rms_s = 1e-6;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(SineFmSourceJitter, JitterWindowMustFitTheHalfPeriodAtTheCrest) {
  // 6 sigma = 0.27 ms: inside the 5% rule at 1 kHz, but past the 0.26 ms
  // half period at 1.9 kHz.
  SourceBench b;
  SineFmSource::Config cfg = cwConfig(1000.0);
  cfg.edge_jitter_rms_s = 4.5e-5;
  EXPECT_NO_THROW(cfg.validate());
  cfg.deviation_hz = 900.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.deviation_hz = 0.0;
  SineFmSource src(b.c, b.out, b.marker, cfg);
  EXPECT_THROW(src.setModulation(5.0, 900.0), std::invalid_argument);
  EXPECT_THROW(src.setCarrier(1900.0), std::invalid_argument);
  EXPECT_NO_THROW(src.setModulation(5.0, 500.0));
  EXPECT_EQ(src.config().deviation_hz, 500.0);
}

TEST(SineFmSourceJitter, EdgeCountPreservedAndMeanPeriodUnchanged) {
  SourceBench b;
  SineFmSource::Config cfg = cwConfig(1000.0);
  cfg.edge_jitter_rms_s = 5e-6;
  SineFmSource src(b.c, b.out, b.marker, cfg);
  sim::EdgeRecorder rec(b.c, b.out);
  b.c.run(0.5);
  const auto& rises = rec.risingEdges();
  ASSERT_GE(rises.size(), 400u);  // no swallowed edges
  const double mean_period = (rises.back() - rises.front()) / (rises.size() - 1);
  EXPECT_NEAR(mean_period, 1e-3, 1e-6);  // jitter is non-accumulating
}

TEST(SineFmSourceJitter, PeriodSpreadMatchesInjectedRms) {
  SourceBench b;
  SineFmSource::Config cfg = cwConfig(1000.0);
  cfg.edge_jitter_rms_s = 5e-6;
  SineFmSource src(b.c, b.out, b.marker, cfg);
  sim::EdgeRecorder rec(b.c, b.out);
  b.c.run(1.0);
  std::vector<double> periods;
  for (size_t i = 1; i < rec.risingEdges().size(); ++i)
    periods.push_back(rec.risingEdges()[i] - rec.risingEdges()[i - 1]);
  double mean = 0.0;
  for (double v : periods) mean += v;
  mean /= periods.size();
  double var = 0.0;
  for (double v : periods) var += (v - mean) * (v - mean);
  var /= periods.size();
  // Period jitter of independent edge jitter: sigma_period = sqrt(2)*sigma.
  EXPECT_NEAR(std::sqrt(var), std::sqrt(2.0) * 5e-6, 1.5e-6);
}

TEST(SineFmSourceJitter, DeterministicPerSeed) {
  auto edges = [](unsigned seed) {
    SourceBench b;
    SineFmSource::Config cfg = cwConfig(1000.0);
    cfg.edge_jitter_rms_s = 5e-6;
    cfg.jitter_seed = seed;
    SineFmSource src(b.c, b.out, b.marker, cfg);
    sim::EdgeRecorder rec(b.c, b.out);
    b.c.run(0.05);
    return rec.risingEdges();
  };
  EXPECT_EQ(edges(7), edges(7));
  EXPECT_NE(edges(7), edges(8));
}

}  // namespace
}  // namespace pllbist::pll
