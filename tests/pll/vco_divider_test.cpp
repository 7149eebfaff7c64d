// Differential tests for the VCO's fused feedback divider and the analytic
// frequency counter. The slow path they replace is a standalone
// sim::DivideByN (or a gated counter) on a materialised VCO output: with
// such an observer the VCO stops at every half-cycle, and the fused PLLFB
// must match the standalone divider bit for bit. Without one the VCO skips
// the half-cycles nobody sees while the control voltage is frozen, and
// PLLFB may only move by phase-accumulator rounding (well under 1 ps).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "bist/counters.hpp"
#include "pll/cppll.hpp"
#include "pll/pump_filter.hpp"
#include "pll/sources.hpp"
#include "pll/vco.hpp"
#include "sim/circuit.hpp"
#include "sim/primitives.hpp"
#include "support/gates.hpp"
#include "support/test_configs.hpp"

namespace pllbist::pll {
namespace {

constexpr double kDividerDelay = 1e-9;

enum class Filter { Voltage4046, Leaky4046, CurrentSteering };

struct Case {
  int n;
  Filter filter;
};

std::string caseName(const ::testing::TestParamInfo<Case>& info) {
  const char* kind = info.param.filter == Filter::Voltage4046   ? "Voltage4046"
                     : info.param.filter == Filter::Leaky4046 ? "Leaky4046"
                                                              : "CurrentSteering";
  return std::string(kind) + "_N" + std::to_string(info.param.n);
}

VcoConfig vcoConfig() {
  VcoConfig cfg;
  cfg.center_frequency_hz = 100e3;
  cfg.gain_hz_per_v = 50e3;
  cfg.min_frequency_hz = 10e3;
  cfg.max_frequency_hz = 200e3;
  return cfg;
}

PumpFilterConfig filterConfig(Filter f) {
  PumpFilterConfig cfg;
  cfg.r1_ohm = 10e3;
  cfg.r2_ohm = 1e3;
  cfg.c_farad = 1e-6;
  cfg.initial_vc_v = 2.5;
  if (f == Filter::Leaky4046) cfg.leak_ohm = 200e3;  // never frozen
  if (f == Filter::CurrentSteering) {
    cfg.kind = PumpKind::CurrentSteering;
    cfg.pump_current_a = 100e-6;
  }
  return cfg;
}

/// A VCO with its fused divider under an open-loop pump pulse program,
/// wired as the netlist loop wired it (testing::NetVco). `observed` adds a
/// standalone DivideByN on the VCO output: the slow-path reference, and an
/// observer that makes the VCO materialise every edge.
struct DividerBench {
  sim::Circuit c;
  sim::SignalId up, dn, vco_out, fb, fb_ref;
  testing::NetVco net;
  std::optional<sim::DivideByN> reference;
  sim::EdgeRecorder fb_edges;
  std::optional<sim::EdgeRecorder> ref_edges;

  DividerBench(const Case& k, bool observed)
      : up(c.addSignal("up")),
        dn(c.addSignal("dn")),
        vco_out(c.addSignal("vco_out")),
        fb(c.addSignal("fb")),
        fb_ref(c.addSignal("fb_ref")),
        net(c, up, dn, vco_out, fb, filterConfig(k.filter), vcoConfig(), k.n, kDividerDelay),
        fb_edges(c, fb) {
    if (observed) {
      reference.emplace(c, vco_out, fb_ref, k.n, kDividerDelay);
      ref_edges.emplace(c, fb_ref);
    }
    // Pump pulses at irregular times, so they land in the middle of the
    // stretches the unobserved VCO skips: up and down, narrow and wide.
    const double kStarts[] = {0.37e-3, 1.113e-3, 1.9071e-3, 2.6e-3, 3.3337e-3, 4.05e-3};
    const double kWidths[] = {1.3e-6, 17.0e-6, 0.4e-6, 45.0e-6, 3.1e-6, 9.0e-6};
    for (int i = 0; i < 6; ++i) {
      const sim::SignalId drive = i % 3 == 1 ? dn : up;
      c.scheduleSet(drive, kStarts[i], true);
      c.scheduleSet(drive, kStarts[i] + kWidths[i], false);
    }
  }
};

class FusedDivider : public ::testing::TestWithParam<Case> {};

TEST_P(FusedDivider, ObservedMatchesStandaloneDividerBitForBit) {
  DividerBench b(GetParam(), /*observed=*/true);
  b.c.run(5e-3);
  const std::vector<double>& rise = b.fb_edges.risingEdges();
  ASSERT_GE(rise.size(), 10u);
  EXPECT_EQ(rise, b.ref_edges->risingEdges());
  EXPECT_EQ(b.fb_edges.fallingEdges(), b.ref_edges->fallingEdges());
}

TEST_P(FusedDivider, UnobservedAgreesWithin1ps) {
  DividerBench slow(GetParam(), /*observed=*/true);
  DividerBench fast(GetParam(), /*observed=*/false);
  slow.c.run(5e-3);
  fast.c.run(5e-3);
  EXPECT_FALSE(fast.c.hasObservers(fast.vco_out));
  const std::vector<double>* want[] = {&slow.ref_edges->risingEdges(),
                                       &slow.ref_edges->fallingEdges()};
  const std::vector<double>* got[] = {&fast.fb_edges.risingEdges(),
                                      &fast.fb_edges.fallingEdges()};
  for (int edge = 0; edge < 2; ++edge) {
    ASSERT_EQ(got[edge]->size(), want[edge]->size()) << (edge == 0 ? "rising" : "falling");
    for (std::size_t i = 0; i < want[edge]->size(); ++i)
      EXPECT_NEAR((*got[edge])[i], (*want[edge])[i], 1e-12) << "edge " << i;
  }
  // Skipping is what the fused divider is for: with a frozen filter most
  // half-cycles never become events.
  if (GetParam().filter != Filter::Leaky4046 && GetParam().n >= 3) {
    EXPECT_LT(fast.c.processedEventCount(), slow.c.processedEventCount() / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Vco, FusedDivider,
                         ::testing::Values(Case{1, Filter::Voltage4046},
                                           Case{2, Filter::Voltage4046},
                                           Case{3, Filter::Voltage4046},
                                           Case{50, Filter::Voltage4046},
                                           Case{3, Filter::Leaky4046},
                                           Case{50, Filter::Leaky4046},
                                           Case{3, Filter::CurrentSteering},
                                           Case{50, Filter::CurrentSteering}),
                         caseName);

TEST(FusedDividerObserver, AddedMidRunTakesEffectAtTheNextAim) {
  DividerBench full(Case{50, Filter::Voltage4046}, /*observed=*/true);
  sim::EdgeRecorder all(full.c, full.vco_out);
  DividerBench b(Case{50, Filter::Voltage4046}, /*observed=*/false);
  b.c.run(1e-3);
  sim::EdgeRecorder late(b.c, b.vco_out);
  b.c.run(2e-3);
  full.c.run(2e-3);
  // The pending aim (at most one divider period away) still skips; from
  // the next aim on every edge is materialised, in step with a VCO that
  // was observed all along.
  const std::vector<double>& got = late.risingEdges();
  ASSERT_GE(got.size(), 50u);
  EXPECT_LT(got.front(), 1e-3 + 50 / 90e3);
  std::size_t k = 0;
  while (k < all.risingEdges().size() && all.risingEdges()[k] < got.front() - 1e-9) ++k;
  ASSERT_EQ(all.risingEdges().size() - k, got.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got[i], all.risingEdges()[k + i], 1e-12) << "edge " << i;
}

// ---- analytic frequency counter ------------------------------------------

/// Counts one gate with the analytic counter and with the gated-counter
/// netlist in the same circuit. The netlist observes the VCO output, so the
/// VCO materialises every edge.
struct GatePair {
  bist::FrequencyCounter analytic;
  testing::GatedCounter gated;
  long analytic_count = -1;
  long gated_count = -2;

  GatePair(sim::Circuit& c, const Vco& vco, sim::SignalId vco_out)
      : analytic(c, vco), gated(c, vco_out) {}

  void measure(sim::Circuit& c, double gate_s) {
    bool a_done = false, g_done = false;
    analytic.measure(gate_s, [&](bist::FrequencyCounter::Result r) {
      analytic_count = r.count;
      a_done = true;
    });
    gated.start();
    c.scheduleCallback(c.now() + gate_s, [&](double) {
      gated.stop();
      gated_count = gated.count();
      g_done = true;
    });
    c.run(c.now() + gate_s);
    ASSERT_TRUE(a_done && g_done);
  }
};

TEST(AnalyticFrequencyCounter, MatchesGatedCounterAcrossPumpPulses) {
  DividerBench b(Case{50, Filter::Voltage4046}, /*observed=*/false);
  GatePair pair(b.c, b.net.vco(), b.vco_out);
  b.c.run(0.2e-3);
  // Each gate spans at least one pump pulse of the bench's program.
  for (double gate : {1.0e-3, 0.77e-3, 1.3e-3, 0.91e-3}) {
    pair.measure(b.c, gate);
    EXPECT_GT(pair.gated_count, 50);
    EXPECT_EQ(pair.analytic_count, pair.gated_count) << "gate ending at " << b.c.now();
  }
}

/// Closed loop on the fast test device, locked to an ideal reference.
struct LoopBench {
  sim::Circuit c;
  sim::SignalId ext_ref, stim, marker;
  SineFmSource source;
  CpPll pll;

  LoopBench()
      : ext_ref(c.addSignal("ext_ref")),
        stim(c.addSignal("stim")),
        marker(c.addSignal("marker")),
        source(c, stim, marker, sourceConfig()),
        pll(c, ext_ref, stim, testing::fastTestConfig()) {
    pll.setTestMode(true);
  }

  static SineFmSource::Config sourceConfig() {
    SineFmSource::Config s;
    s.nominal_hz = testing::fastTestConfig().ref_frequency_hz;
    return s;
  }
};

TEST(AnalyticFrequencyCounter, MatchesGatedCounterInLockAndHold) {
  LoopBench b;
  b.c.run(0.05);
  GatePair pair(b.c, b.pll.vco(), b.pll.vcoOut());
  const long nominal = static_cast<long>(b.pll.config().nominalVcoHz() * 0.01);
  pair.measure(b.c, 0.01);  // in lock: pump corrections inside the gate
  EXPECT_NEAR(pair.gated_count, nominal, 2);
  EXPECT_EQ(pair.analytic_count, pair.gated_count);

  b.pll.setHold(true);  // loop hold: the filter only sees dead-zone glitches
  b.c.run(b.c.now() + 2e-3);
  pair.measure(b.c, 0.0137);
  EXPECT_EQ(pair.analytic_count, pair.gated_count);
  pair.measure(b.c, 0.0051);
  EXPECT_EQ(pair.analytic_count, pair.gated_count);
}

TEST(AnalyticFrequencyCounter, UnobservedCountMatchesObservedCount) {
  // The same gates without any observer: the count comes from skipped
  // half-cycles and must equal the materialised run's.
  auto counts = [](bool observed) {
    LoopBench b;
    std::optional<testing::GatedCounter> watcher;
    if (observed) watcher.emplace(b.c, b.pll.vcoOut());
    EXPECT_EQ(b.c.hasObservers(b.pll.vcoOut()), observed);
    bist::FrequencyCounter counter(b.c, b.pll.vco());
    std::vector<long> out;
    b.c.run(0.05);
    // Gates that are not whole multiples of the skip stride, so a gate
    // edge lands inside a skipped stretch.
    const double kGates[] = {0.00713, 0.00537, 0.00911};
    for (int i = 0; i < 3; ++i) {
      if (i == 2) b.pll.setHold(true);
      counter.measure(kGates[i], [&](bist::FrequencyCounter::Result r) { out.push_back(r.count); });
      b.c.run(b.c.now() + 0.01);
    }
    return out;
  };
  const std::vector<long> fast = counts(false);
  ASSERT_EQ(fast.size(), 3u);
  EXPECT_EQ(fast, counts(true));
}

}  // namespace
}  // namespace pllbist::pll
