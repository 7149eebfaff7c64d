#include "bist/dco.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dsp/resample.hpp"
#include "sim/circuit.hpp"
#include "sim/primitives.hpp"

namespace pllbist::bist {
namespace {

struct DcoBench {
  sim::Circuit c;
  sim::SignalId out;
  DcoBench() : out(c.addSignal("dco_out")) {}
};

Dco::Config config(double master = 1e6, int modulus = 1000) {
  Dco::Config cfg;
  cfg.master_clock_hz = master;
  cfg.initial_modulus = modulus;
  return cfg;
}

TEST(DcoConfig, Validation) {
  Dco::Config cfg = config();
  cfg.master_clock_hz = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = config();
  cfg.initial_modulus = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = config();
  cfg.start_time_s = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Dco, NominalFrequencyFromModulus) {
  DcoBench b;
  Dco dco(b.c, b.out, config());  // 1 MHz / 1000 = 1 kHz
  sim::EdgeRecorder rec(b.c, b.out);
  b.c.run(0.02);
  const auto& rises = rec.risingEdges();
  ASSERT_GE(rises.size(), 10u);
  EXPECT_NEAR(rises[5] - rises[4], 1e-3, 1e-12);
}

TEST(Dco, EdgesLandExactlyOnMasterTicks) {
  DcoBench b;
  Dco dco(b.c, b.out, config());
  sim::EdgeRecorder rec(b.c, b.out);
  b.c.run(0.01);
  for (double t : rec.risingEdges()) {
    const double ticks = t * 1e6;
    EXPECT_NEAR(ticks, std::round(ticks), 1e-6) << t;
  }
}

TEST(Dco, DutyCycleNearHalf) {
  DcoBench b;
  Dco dco(b.c, b.out, config());
  sim::EdgeRecorder rec(b.c, b.out);
  b.c.run(0.01);
  ASSERT_GE(rec.fallingEdges().size(), 3u);
  const double high = rec.fallingEdges()[2] - rec.risingEdges()[2];
  EXPECT_NEAR(high, 0.5e-3, 1e-9);
}

TEST(Dco, FrequencyHopLatchesAtRisingEdge) {
  DcoBench b;
  Dco dco(b.c, b.out, config());
  sim::EdgeRecorder rec(b.c, b.out);
  b.c.run(0.0035);  // mid-cycle
  dco.setFrequency(2000.0);
  b.c.run(0.02);
  auto freqs = dsp::frequencyFromEdges(rec.risingEdges());
  ASSERT_GE(freqs.size(), 6u);
  // Early periods 1 kHz, late periods 2 kHz, no intermediate runt period.
  EXPECT_NEAR(freqs.front().value, 1000.0, 1e-6);
  EXPECT_NEAR(freqs.back().value, 2000.0, 1e-6);
  for (const auto& f : freqs)
    EXPECT_TRUE(std::abs(f.value - 1000.0) < 1.0 || std::abs(f.value - 2000.0) < 1.0)
        << f.value;
}

TEST(Dco, QuantizationToNearestModulus) {
  DcoBench b;
  Dco dco(b.c, b.out, config());
  // 1 MHz master: 1003 Hz requests modulus 997 -> 1003.009 Hz.
  EXPECT_EQ(dco.modulusFor(1003.0), 997);
  EXPECT_NEAR(dco.quantize(1003.0), 1e6 / 997.0, 1e-9);
  // Exact divisors are exact.
  EXPECT_DOUBLE_EQ(dco.quantize(1000.0), 1000.0);
}

TEST(Dco, SetFrequencyReturnsAchieved) {
  DcoBench b;
  Dco dco(b.c, b.out, config());
  const double achieved = dco.setFrequency(1010.0);
  EXPECT_NEAR(achieved, 1e6 / 990.0, 1e-9);
  EXPECT_NEAR(dco.pendingFrequency(), achieved, 1e-12);
}

TEST(Dco, FrequencyRangeValidation) {
  DcoBench b;
  Dco dco(b.c, b.out, config());
  EXPECT_THROW((void)dco.modulusFor(0.0), std::invalid_argument);
  EXPECT_THROW((void)dco.modulusFor(6e5), std::invalid_argument);  // > master/2
  EXPECT_THROW(dco.setModulus(1), std::invalid_argument);
  EXPECT_THROW((void)dco.frequencyOf(0), std::invalid_argument);
}

TEST(Dco, ResolutionMatchesLocalDifference) {
  DcoBench b;
  Dco dco(b.c, b.out, config());
  const double res = dco.resolutionAt(1000.0);
  EXPECT_NEAR(res, 1e6 / 1000.0 - 1e6 / 1001.0, 1e-12);
}

TEST(DcoEq2, PaperResolutionFormula) {
  // Fres = Fin^2/(Fref + Fin).
  EXPECT_NEAR(Dco::resolutionEq2(1000.0, 1e6), 1e6 / 1.001e6, 1e-9);
  // The paper's infeasible case: Fin = 10 MHz from a 100 MHz master gives
  // ~0.9 MHz steps — far coarser than any useful deviation.
  EXPECT_GT(Dco::resolutionEq2(10e6, 100e6), 0.9e6);
  EXPECT_THROW(Dco::resolutionEq2(-1.0, 1e6), std::invalid_argument);
}

TEST(DcoEq2, MatchesSimulatedResolution) {
  DcoBench b;
  Dco dco(b.c, b.out, config());
  EXPECT_NEAR(dco.resolutionAt(1000.0), Dco::resolutionEq2(1000.0, 1e6), 0.01);
}

TEST(Dco, StartTimeRespected) {
  DcoBench b;
  Dco::Config cfg = config();
  cfg.start_time_s = 5e-3;
  Dco dco(b.c, b.out, cfg);
  sim::EdgeRecorder rec(b.c, b.out);
  b.c.run(4e-3);
  EXPECT_TRUE(rec.risingEdges().empty());
  b.c.run(10e-3);
  ASSERT_FALSE(rec.risingEdges().empty());
  EXPECT_GE(rec.risingEdges().front(), 5e-3);
}

}  // namespace
}  // namespace pllbist::bist
