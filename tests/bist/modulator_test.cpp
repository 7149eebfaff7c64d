#include "bist/modulator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/units.hpp"
#include "dsp/resample.hpp"
#include "sim/circuit.hpp"
#include "sim/primitives.hpp"

namespace pllbist::bist {
namespace {

struct ModBench {
  sim::Circuit c;
  sim::SignalId out;
  sim::SignalId marker;
  Dco dco;
  sim::SourceDriver drive;
  ModBench()
      : out(c.addSignal("out")),
        marker(c.addSignal("marker")),
        dco(c, out, Dco::Config{1e6, 1000, 0.0}),
        drive(c, dco) {}
};

FskModulator::Config modConfig(StimulusWaveform wf = StimulusWaveform::MultiToneFsk,
                               int steps = 10) {
  FskModulator::Config cfg;
  cfg.waveform = wf;
  cfg.steps = steps;
  cfg.nominal_hz = 1000.0;
  cfg.deviation_hz = 10.0;
  return cfg;
}

TEST(FskModulatorConfig, Validation) {
  FskModulator::Config cfg = modConfig();
  cfg.steps = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = modConfig();
  cfg.deviation_hz = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = modConfig();
  cfg.deviation_hz = 2000.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(FskModulator, MultiToneProgramIsSampledSine) {
  ModBench b;
  FskModulator mod(b.c, b.dco, b.marker, modConfig());
  for (int k = 0; k < 10; ++k) {
    const double expected = 1000.0 + 10.0 * std::sin(kTwoPi * k / 10.0);
    EXPECT_NEAR(mod.programFrequency(k), expected, 1e-9) << k;
  }
  // Symmetry: second half mirrors the first.
  EXPECT_NEAR(mod.programFrequency(1) + mod.programFrequency(6), 2000.0, 1e-9);
}

TEST(FskModulator, TwoToneProgramIsSquare) {
  ModBench b;
  FskModulator mod(b.c, b.dco, b.marker, modConfig(StimulusWaveform::TwoToneFsk));
  for (int k = 0; k < 5; ++k) EXPECT_DOUBLE_EQ(mod.programFrequency(k), 1010.0);
  for (int k = 5; k < 10; ++k) EXPECT_DOUBLE_EQ(mod.programFrequency(k), 990.0);
}

TEST(FskModulator, StartRequiresPositiveModulation) {
  ModBench b;
  FskModulator mod(b.c, b.dco, b.marker, modConfig());
  EXPECT_THROW(mod.start(0.0), std::invalid_argument);
  EXPECT_FALSE(mod.running());
}

/// One check in the program base refuses a non-finite modulation for every
/// stimulus: it would schedule slot boundaries 0 s apart, or a NaN crest.
TEST(StimulusProgram, StartRefusesNonFiniteModulation) {
  ModBench b;
  FskModulator fsk(b.c, b.dco, b.marker, modConfig());
  pll::SineFmSource::Config scfg;
  scfg.nominal_hz = 1000.0;
  pll::SineFmSource sine_source(b.c, b.c.addSignal("sine"), scfg);
  SineFmProgram sine(b.c, sine_source, b.marker, {1000.0, 10.0});
  for (StimulusProgram* program : {static_cast<StimulusProgram*>(&fsk),
                                   static_cast<StimulusProgram*>(&sine)}) {
    for (const double bad : {std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(), -1.0}) {
      EXPECT_THROW(program->start(bad), std::invalid_argument) << bad;
      EXPECT_FALSE(program->running());
    }
  }
}

TEST(SineFmProgramConfig, Validation) {
  SineFmProgram::Config cfg{1000.0, 10.0};
  EXPECT_NO_THROW(cfg.validate());
  cfg.nominal_hz = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {1000.0, 1000.0};  // deviation >= nominal
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {1000.0, 10.0};
  cfg.marker_pulse_s = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

/// Started, the sine source swings about the nominal; stopped, it returns
/// to the nominal carrier; parked, it holds the crest frequency.
TEST(SineFmProgram, StartStopAndParkSetTheSource) {
  sim::Circuit c;
  const sim::SignalId out = c.addSignal("out");
  const sim::SignalId marker = c.addSignal("marker");
  pll::SineFmSource::Config scfg;
  scfg.nominal_hz = 1000.0;
  pll::SineFmSource source(c, out, scfg);
  sim::SourceDriver drive(c, source);
  SineFmProgram program(c, source, marker, {1000.0, 10.0});
  program.start(20.0);
  EXPECT_TRUE(program.running());
  EXPECT_NEAR(source.instantaneousFrequency(0.25 / 20.0), 1010.0, 1e-9);
  c.run(0.1);
  program.park();
  EXPECT_FALSE(program.running());
  EXPECT_DOUBLE_EQ(source.instantaneousFrequency(0.2), 1010.0);
  program.stop();
  EXPECT_DOUBLE_EQ(source.instantaneousFrequency(0.2), 1000.0);
  EXPECT_EQ(source.config().modulation_hz, 0.0);
}

TEST(FskModulator, OutputSwingsAcrossProgramRange) {
  ModBench b;
  FskModulator mod(b.c, b.dco, b.marker, modConfig());
  mod.start(5.0);  // slot width 20 ms >> carrier period
  sim::EdgeRecorder rec(b.c, b.out);
  b.c.run(0.6);  // three modulation periods
  auto freqs = dsp::frequencyFromEdges(rec.risingEdges());
  double lo = 1e12, hi = 0.0;
  for (const auto& f : freqs) {
    lo = std::min(lo, f.value);
    hi = std::max(hi, f.value);
  }
  // DCO-quantised: ~1 Hz steps at 1 kHz from a 1 MHz master.
  EXPECT_NEAR(hi, 1010.0, 1.5);
  EXPECT_NEAR(lo, 990.0, 1.5);
}

TEST(FskModulator, MarkerOncePerPeriodAtCrest) {
  ModBench b;
  FskModulator mod(b.c, b.dco, b.marker, modConfig());
  mod.start(10.0);
  sim::EdgeRecorder rec(b.c, b.marker);
  b.c.run(0.55);
  const auto& rises = rec.risingEdges();
  ASSERT_GE(rises.size(), 4u);
  for (size_t i = 1; i < rises.size(); ++i)
    EXPECT_NEAR(rises[i] - rises[i - 1], 0.1, 1e-6);
  // Marker sits at quarter period plus half a slot (ZOH fundamental crest).
  const double period = 0.1, slot = period / 10.0;
  EXPECT_NEAR(rises[0], 0.25 * period + 0.5 * slot, 1e-9);
}

TEST(FskModulator, StopReturnsToNominalAndSilencesMarker) {
  ModBench b;
  FskModulator mod(b.c, b.dco, b.marker, modConfig());
  mod.start(10.0);
  b.c.run(0.25);
  mod.stop();
  EXPECT_FALSE(mod.running());
  sim::EdgeRecorder marker(b.c, b.marker);
  sim::EdgeRecorder out(b.c, b.out);
  b.c.run(0.5);
  EXPECT_TRUE(marker.risingEdges().empty());
  auto freqs = dsp::frequencyFromEdges(out.risingEdges());
  ASSERT_FALSE(freqs.empty());
  EXPECT_NEAR(freqs.back().value, 1000.0, 1.5);
}

TEST(FskModulator, ParkHoldsCrestFrequency) {
  ModBench b;
  FskModulator mod(b.c, b.dco, b.marker, modConfig());
  mod.park();
  sim::EdgeRecorder out(b.c, b.out);
  b.c.run(0.1);
  auto freqs = dsp::frequencyFromEdges(out.risingEdges());
  ASSERT_GE(freqs.size(), 10u);
  for (size_t i = 3; i < freqs.size(); ++i) EXPECT_NEAR(freqs[i].value, 1010.0, 1.5);
}

TEST(FskModulator, RestartReplacesProgram) {
  ModBench b;
  FskModulator mod(b.c, b.dco, b.marker, modConfig());
  mod.start(5.0);
  b.c.run(0.12);
  mod.start(50.0);  // retune mid-flight
  sim::EdgeRecorder marker(b.c, b.marker);
  b.c.run(0.12 + 0.1);
  // markers at the new 20 ms period only
  const auto& rises = marker.risingEdges();
  ASSERT_GE(rises.size(), 3u);
  for (size_t i = 1; i < rises.size(); ++i)
    EXPECT_NEAR(rises[i] - rises[i - 1], 0.02, 1e-6);
}

TEST(FskModulator, StepCountControlsGranularity) {
  ModBench b1, b2;
  FskModulator coarse(b1.c, b1.dco, b1.marker, modConfig(StimulusWaveform::MultiToneFsk, 4));
  FskModulator fine(b2.c, b2.dco, b2.marker, modConfig(StimulusWaveform::MultiToneFsk, 20));
  // distinct program levels (ignoring duplicates)
  auto levels = [](FskModulator& m, int steps) {
    std::vector<double> v;
    for (int k = 0; k < steps; ++k) v.push_back(m.programFrequency(k));
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end(),
                        [](double a, double b) { return std::abs(a - b) < 1e-9; }),
            v.end());
    return v.size();
  };
  EXPECT_LT(levels(coarse, 4), levels(fine, 20));
}

}  // namespace
}  // namespace pllbist::bist
