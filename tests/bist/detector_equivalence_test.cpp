// The behavioural phase detectors against the gate netlists they replace.
//
// The oracle builds the loop PFD (two D flip-flops with D tied high and an
// asynchronous reset, plus the reset AND) and the Figure 7 peak detector
// (a second such PFD, a clock buffer on its UP, a delaying inverter on its
// DN and the sampling flop) from the gate oracles in support/gates.hpp and
// sim::Inverter. The behavioural pll::Pfd (run by testing::PfdRun) and
// bist::PeakDetector see the same seeded REF/FB edge streams, and every
// transition of UP, DN, the reset net and MFREQ must match bit for bit.
// tests/pll/loop_equivalence_test.cpp checks the Pfd again inside the
// fused loop.
//
// At an exact tie between an input edge and a reset-window boundary the
// netlist's outcome depends on queue order, so the streams use random
// times (no exact ties); the rule the behavioural detectors follow at a
// tie is pinned separately below.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bist/peak_detector.hpp"
#include "pll/pfd.hpp"
#include "sim/circuit.hpp"
#include "sim/primitives.hpp"
#include "support/gates.hpp"

namespace pllbist::bist {
namespace {

/// The Figure 7 peak detector's gate netlist around a monitor GatePfd.
struct GatePeakDetector {
  sim::SignalId clk;
  sim::SignalId dnb;
  sim::SignalId mfreq;
  testing::GatePfd pfd;
  testing::Buffer clock_buffer;
  sim::Inverter data_inverter;
  testing::DFlipFlop sampler;

  GatePeakDetector(sim::Circuit& c, sim::SignalId ref, sim::SignalId fb,
                   const pll::PfdDelays& pd, const PeakDetectorDelays& d)
      : clk(c.addSignal("peakdet.clk")),
        dnb(c.addSignal("peakdet.dnb", true)),
        mfreq(c.addSignal("peakdet.mfreq")),
        pfd(c, ref, fb, pd, "peakdet.pfd"),
        clock_buffer(c, pfd.up, clk, d.clock_delay_s),
        data_inverter(c, pfd.dn, dnb, d.inverter_delay_s),
        sampler(c, clk, dnb, mfreq, d.latch_delay_s) {}
};

/// Rising-edge times of REF and FB; each net falls halfway to its next rise.
struct EdgeStream {
  std::vector<double> ref;
  std::vector<double> fb;
  double end = 0.0;
};

/// A seeded stream of segments, each a few to a few hundred reference
/// cycles of one kind: near-coincident edges (dead-zone glitches, edges
/// within a glitch width of each other), wide lead/lag, frequency offsets
/// that slip cycles, and extra edges aimed into the reset window.
EdgeStream makeStream(uint64_t seed, int segments, const pll::PfdDelays& d) {
  std::mt19937_64 rng(seed);
  auto uniform = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  const double period = 1e-5;
  const double glitch = d.glitchWidth();
  // An input edge this long after the later one of a coincident pair lands
  // inside the reset window it opens (or close to its edges).
  const double window_lo = d.ff_clk_to_q_s + 0.5 * d.and_delay_s;
  const double window_hi = d.ff_clk_to_q_s + 2.0 * d.and_delay_s + 1.5 * d.ff_reset_to_q_s;
  EdgeStream s;
  double t = 1e-6;
  for (int seg = 0; seg < segments; ++seg) {
    const int kind = static_cast<int>(rng() % 4);
    const int cycles = 5 + static_cast<int>(rng() % (kind == 0 ? 300 : 60));
    const double lead = uniform(-0.4, 0.4) * period;
    const double fb_period = period * (1.0 + uniform(0.05, 0.3) * (rng() % 2 ? 1.0 : -1.0));
    double fb_t = t + uniform(0.0, period);
    for (int k = 0; k < cycles; ++k, t += period * uniform(0.98, 1.02)) {
      s.ref.push_back(t);
      switch (kind) {
        case 0:  // near-coincident
          s.fb.push_back(t + uniform(-3.0, 3.0) * glitch);
          break;
        case 1:  // lead or lag
          s.fb.push_back(t + lead * uniform(0.5, 1.0));
          break;
        case 2:  // frequency offset: cycle slips
          s.fb.push_back(fb_t);
          fb_t += fb_period;
          break;
        default: {  // a second edge on one input, aimed at the reset window
          const double fb_edge = t + uniform(-1.0, 1.0) * glitch;
          s.fb.push_back(fb_edge);
          const double later = std::max(t, fb_edge);
          const double extra = later + uniform(window_lo, window_hi);
          (rng() % 2 ? s.ref : s.fb).push_back(extra);
          break;
        }
      }
    }
  }
  s.end = t + period;
  for (std::vector<double>* v : {&s.ref, &s.fb}) {
    std::sort(v->begin(), v->end());
    v->erase(std::remove_if(v->begin(), v->end(), [](double x) { return x <= 0.0; }), v->end());
  }
  return s;
}

void drive(sim::Circuit& c, sim::SignalId net, const std::vector<double>& rises, double end) {
  for (std::size_t i = 0; i < rises.size(); ++i) {
    const double next = i + 1 < rises.size() ? rises[i + 1] : end;
    c.scheduleSet(net, rises[i], true);
    c.scheduleSet(net, rises[i] + 0.5 * (next - rises[i]), false);
  }
}

/// Recorded transitions of one net.
using Waveform = testing::PfdRun::Waveform;

Waveform waveformOf(const sim::EdgeRecorder& rec) {
  return {rec.risingEdges(), rec.fallingEdges()};
}

/// Loop PFD, monitor UP/DN/reset and MFREQ, in that order.
struct Waveforms {
  Waveform loop_up, loop_dn, loop_rst, mon_up, mon_dn, mon_rst, mfreq;
};

void expectSame(const Waveform& got, const Waveform& want, const char* net) {
  ASSERT_EQ(got.rising.size(), want.rising.size()) << net << " rising edges";
  ASSERT_EQ(got.falling.size(), want.falling.size()) << net << " falling edges";
  for (std::size_t i = 0; i < got.rising.size(); ++i)
    ASSERT_EQ(got.rising[i], want.rising[i]) << net << " rising edge " << i;
  for (std::size_t i = 0; i < got.falling.size(); ++i)
    ASSERT_EQ(got.falling[i], want.falling[i]) << net << " falling edge " << i;
}

struct Delays {
  pll::PfdDelays pfd;
  PeakDetectorDelays peak;
};

Waveforms runGates(const EdgeStream& s, const Delays& d) {
  sim::Circuit c;
  const auto ref = c.addSignal("ref");
  const auto fb = c.addSignal("fb");
  testing::GatePfd loop(c, ref, fb, d.pfd, "pll.pfd");
  GatePeakDetector peak(c, ref, fb, d.pfd, d.peak);
  sim::EdgeRecorder r[] = {{c, loop.up},     {c, loop.dn},     {c, loop.rst}, {c, peak.pfd.up},
                           {c, peak.pfd.dn}, {c, peak.pfd.rst}, {c, peak.mfreq}};
  drive(c, ref, s.ref, s.end);
  drive(c, fb, s.fb, s.end);
  c.run(s.end);
  return {waveformOf(r[0]), waveformOf(r[1]), waveformOf(r[2]), waveformOf(r[3]),
          waveformOf(r[4]), waveformOf(r[5]), waveformOf(r[6])};
}

/// Wire a bare peak detector to REF and FB nets.
void wire(sim::Circuit& c, sim::SignalId ref, sim::SignalId fb, PeakDetector& peak) {
  c.onRisingEdge(ref, [&peak](double t) { peak.inputRose(false, t); });
  c.onRisingEdge(fb, [&peak](double t) { peak.inputRose(true, t); });
}

/// The behavioural detectors: the loop Pfd run over the stream's edges,
/// and the peak detector in a circuit. `observe_internal` hangs recorders
/// on the monitor's UP/DN/reset, which are otherwise left unwritten (and
/// come back empty).
Waveforms runBehavioural(const EdgeStream& s, const Delays& d, bool observe_internal) {
  const testing::PfdRun loop(s.ref, s.fb, d.pfd, s.end);
  sim::Circuit c;
  const auto ref = c.addSignal("ref");
  const auto fb = c.addSignal("fb");
  PeakDetector peak(c, d.pfd, d.peak);
  wire(c, ref, fb, peak);
  std::vector<std::unique_ptr<sim::EdgeRecorder>> r;
  for (const sim::SignalId net : {peak.monitorUp(), peak.monitorDn(), peak.monitorReset()})
    r.push_back(observe_internal ? std::make_unique<sim::EdgeRecorder>(c, net) : nullptr);
  const sim::EdgeRecorder mfreq(c, peak.mfreq());
  drive(c, ref, s.ref, s.end);
  drive(c, fb, s.fb, s.end);
  c.run(s.end);
  auto wave = [&](std::size_t i) { return r[i] ? waveformOf(*r[i]) : Waveform{}; };
  return {loop.up, loop.dn, loop.rst, wave(0), wave(1), wave(2), waveformOf(mfreq)};
}

void expectEquivalent(const EdgeStream& s, const Delays& d) {
  const Waveforms gates = runGates(s, d);
  // The stream must actually exercise the detectors.
  ASSERT_GT(gates.loop_rst.rising.size(), s.ref.size() / 2);
  ASSERT_GT(gates.mfreq.rising.size(), 0u);
  ASSERT_GT(gates.mfreq.falling.size(), 0u);
  for (const bool observed : {true, false}) {
    SCOPED_TRACE(observed ? "internal nets observed" : "internal nets unobserved");
    const Waveforms b = runBehavioural(s, d, observed);
    expectSame(b.loop_up, gates.loop_up, "loop UP");
    expectSame(b.loop_dn, gates.loop_dn, "loop DN");
    expectSame(b.loop_rst, gates.loop_rst, "loop reset");
    expectSame(b.mfreq, gates.mfreq, "MFREQ");
    if (observed) {
      expectSame(b.mon_up, gates.mon_up, "monitor UP");
      expectSame(b.mon_dn, gates.mon_dn, "monitor DN");
      expectSame(b.mon_rst, gates.mon_rst, "monitor reset");
    }
  }
}

Delays slowDelays() {
  Delays d;
  d.pfd.ff_clk_to_q_s = 20e-9;
  d.pfd.and_delay_s = 15e-9;
  d.pfd.ff_reset_to_q_s = 9e-9;
  d.peak.clock_delay_s = 7e-9;
  d.peak.inverter_delay_s = 30e-9;
  d.peak.latch_delay_s = 5e-9;
  return d;
}

class DetectorEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DetectorEquivalence, DefaultDelaysMatchTheGateNetlist) {
  const Delays d;
  expectEquivalent(makeStream(GetParam(), 40, d.pfd), d);
}

TEST_P(DetectorEquivalence, SlowDelaysMatchTheGateNetlist) {
  const Delays d = slowDelays();
  expectEquivalent(makeStream(GetParam() ^ 0x5eed, 40, d.pfd), d);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectorEquivalence, ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(DetectorEquivalenceLongRun, ThousandsOfCyclesMatchTheGateNetlist) {
  const Delays d;
  const EdgeStream s = makeStream(99, 400, d.pfd);
  ASSERT_GT(s.ref.size(), 20000u);
  expectEquivalent(s, d);
}

/// A fork (Circuit::copyStateFrom plus the detector's copyStateFrom) taken
/// at any instant continues exactly as the unforked run: forks are cut
/// every nanosecond for 16 ns after each input edge, inside the reset
/// windows and dead-zone glitches, and each runs two reference periods.
/// (tests/pll/loop_equivalence_test.cpp forks the loop PFD inside the
/// fused loop.)
TEST(DetectorFork, ForkAtAnyInstantContinuesAsTheSource) {
  const Delays d;
  const EdgeStream s = makeStream(7, 12, d.pfd);
  struct Bench {
    sim::Circuit c;
    sim::SignalId ref = c.addSignal("ref");
    sim::SignalId fb = c.addSignal("fb");
    PeakDetector peak;
    explicit Bench(const Delays& d) : peak(c, d.pfd, d.peak) {
      wire(c, ref, fb, peak);
      c.onChange(peak.mfreq(), [this](double now, bool v) { transitions.push_back({now, v}); });
    }
    struct Transition {
      double time;
      bool value;
      bool operator==(const Transition&) const = default;
    };
    std::vector<Transition> transitions;
  };
  Bench unforked(d);
  drive(unforked.c, unforked.ref, s.ref, s.end);
  drive(unforked.c, unforked.fb, s.fb, s.end);
  unforked.c.run(s.end);
  ASSERT_GT(unforked.transitions.size(), 10u);

  std::vector<double> cuts;
  for (const std::vector<double>* edges : {&s.ref, &s.fb})
    for (const double e : *edges)
      for (int ns = 0; ns < 16; ++ns) cuts.push_back(e + ns * 1e-9);
  std::sort(cuts.begin(), cuts.end());
  Bench source(d);
  drive(source.c, source.ref, s.ref, s.end);
  drive(source.c, source.fb, s.fb, s.end);
  const double horizon = 2e-5;
  for (const double cut : cuts) {
    if (cut + horizon > s.end) break;
    source.c.run(cut);
    Bench fork(d);
    fork.c.copyStateFrom(source.c);
    fork.peak.copyStateFrom(source.peak);
    fork.c.run(cut + horizon);
    std::vector<Bench::Transition> want;
    for (const Bench::Transition& t : unforked.transitions)
      if (t.time > cut && t.time <= cut + horizon) want.push_back(t);
    ASSERT_EQ(fork.transitions, want) << "fork at " << cut;
  }
}

/// At an exact tie the behavioural detectors follow one rule: the reset
/// holds from its rise instant (a clock edge there is ignored) and
/// releases at its fall instant (a clock edge there is taken).
TEST(DetectorResetWindow, HoldsFromItsRiseAndReleasesAtItsFall) {
  const pll::PfdDelays d;
  for (const bool at_fall : {false, true}) {
    SCOPED_TRACE(at_fall ? "clock edge at the fall instant" : "clock edge at the rise instant");
    sim::Circuit c;
    const auto ref = c.addSignal("ref");
    const auto fb = c.addSignal("fb");
    PeakDetector peak(c, d, PeakDetectorDelays{});
    wire(c, ref, fb, peak);
    sim::EdgeRecorder mon_up(c, peak.monitorUp());
    // REF leads, FB opens the reset window at the AND's output.
    const double t_ref = 1e-6;
    const double t_fb = 1.5e-6;
    const double rise = (t_fb + d.ff_clk_to_q_s) + d.and_delay_s;
    const double fall = (rise + d.ff_reset_to_q_s) + d.and_delay_s;
    const double t_edge = at_fall ? fall : rise;
    c.scheduleSet(ref, t_ref, true);
    c.scheduleSet(ref, 0.5 * (t_ref + t_edge), false);
    c.scheduleSet(ref, t_edge, true);
    c.scheduleSet(fb, t_fb, true);
    c.run(3e-6);
    const testing::PfdRun loop({t_ref, t_edge}, {t_fb}, d, 3e-6);
    const std::vector<double> first_rise_only{t_ref + d.ff_clk_to_q_s};
    const std::vector<double> both_rises{t_ref + d.ff_clk_to_q_s, t_edge + d.ff_clk_to_q_s};
    const std::vector<double>& want = at_fall ? both_rises : first_rise_only;
    EXPECT_EQ(loop.up.rising, want);
    EXPECT_EQ(mon_up.risingEdges(), want);
  }
}

}  // namespace
}  // namespace pllbist::bist
