// The fused loop (pll::CpPll) against the netlist it replaces.
//
// The oracle, testing::NetlistLoop (support/gates.hpp), is the loop wired as
// a netlist: the input and hold muxes as nets, the PFD as gates, and the
// pump/filter and VCO on the UP/DN nets with a VCO event re-aimed (and the
// old one superseded) at every drive change. Both loops get the same seeded
// reference stream: jittered cycles, frequency offsets that slip cycles,
// missing edges, phase steps and narrow glitches whose second rising edge
// lands in or near the PFD's reset window. Hold is toggled at random times,
// inside the input mux's delay after a stimulus edge, and inside the
// feedback divider's delay before a PLLFB edge (where the fused loop takes
// back a hold-mux decision it made ahead). Every PLLREF and PLLFB edge,
// every UP/DN pulse and every filter-voltage sample must be bit-equal, for
// both pump kinds, with the loop's nets observed and unobserved. A fork
// taken at any instant must continue exactly as the unforked run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "pll/config.hpp"
#include "pll/cppll.hpp"
#include "pll/sources.hpp"
#include "sim/circuit.hpp"
#include "sim/primitives.hpp"
#include "support/gates.hpp"

namespace pllbist::pll {
namespace {

constexpr double kMuxDelay = testing::NetlistLoop::kMuxDelay;

/// One step of the program both loops run: a stimulus write, a hold
/// select write, or a filter-voltage sample.
struct Action {
  enum class Kind { Stim, Hold, Sample };
  double time;
  Kind kind;
  bool value;
};

using Program = std::vector<Action>;

void sortProgram(Program& p) {
  std::stable_sort(p.begin(), p.end(),
                   [](const Action& a, const Action& b) { return a.time < b.time; });
}

/// A seeded reference stream around `period`, with a filter-voltage sample
/// every 37 us and, when `hold` is set, hold toggled on and off at random
/// times and inside the input mux's delay after some stimulus edges.
Program makeProgram(uint64_t seed, double period, int cycles, bool hold) {
  std::mt19937_64 rng(seed);
  auto uniform = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  Program p;
  double t = 20e-6;
  double scale = 1.0;
  bool held = false;
  int next_hold = 60;
  for (int k = 0; k < cycles; ++k) {
    switch (rng() % 8) {
      case 0:  // a new frequency offset, enough to slip cycles for a while
        scale = 1.0 + uniform(-0.03, 0.03);
        break;
      case 1:  // back to nominal
        scale = 1.0;
        break;
      default:
        break;
    }
    double this_period = period * scale * uniform(0.998, 1.002);
    const int kind = static_cast<int>(rng() % 10);
    if (kind == 0) this_period *= uniform(0.8, 1.2);  // phase step
    if (kind != 1) {                                  // kind 1: a missing edge
      p.push_back({t, Action::Kind::Stim, true});
      double fall = t + uniform(0.3, 0.7) * this_period;
      if (kind == 2) {  // a glitch: a second rising edge 4 to 25 ns later
        const double low = t + uniform(2e-9, 12e-9);
        p.push_back({low, Action::Kind::Stim, false});
        p.push_back({low + uniform(2e-9, 13e-9), Action::Kind::Stim, true});
      }
      p.push_back({fall, Action::Kind::Stim, false});
      if (hold && k >= next_hold) {
        // Toggle hold: inside the input mux's delay after this rise, or at
        // a random instant of the cycle.
        const double at = rng() % 2 ? t + uniform(0.1, 0.9) * kMuxDelay
                                    : t + uniform(0.0, 1.0) * this_period;
        held = !held;
        p.push_back({at, Action::Kind::Hold, held});
        const int gap = held ? 5 + static_cast<int>(rng() % 25) : 20 + static_cast<int>(rng() % 60);
        next_hold = k + gap;
      }
    }
    t += this_period;
  }
  for (double s = 11e-6; s < t; s += 37e-6) p.push_back({s, Action::Kind::Sample, false});
  sortProgram(p);
  return p;
}

/// Runs a program on a circuit, one action per handler event.
class ProgramRunner : public sim::Component, private sim::Circuit::Handler {
 public:
  ProgramRunner(sim::Circuit& c, sim::SignalId stim, const Program& program,
         std::function<void(bool)> set_hold, std::function<double()> sample)
      : circuit_(c),
        handler_(c.addHandler(*this)),
        stim_(stim),
        program_(program),
        set_hold_(std::move(set_hold)),
        sample_(std::move(sample)) {
    if (!program_.empty()) c.scheduleEvent(program_.front().time, handler_, 0);
  }

  std::vector<double> samples;
  [[nodiscard]] double end() const { return program_.back().time + 1e-6; }
  void copyStateFrom(const ProgramRunner& source) {
    next_ = source.next_;
    samples = source.samples;
  }

 private:
  bool onEvent(uint32_t, double) override {
    const Action& a = program_[next_++];
    switch (a.kind) {
      case Action::Kind::Stim:
        circuit_.setNow(stim_, a.value);
        break;
      case Action::Kind::Hold:
        set_hold_(a.value);
        break;
      case Action::Kind::Sample:
        samples.push_back(sample_());
        break;
    }
    if (next_ < program_.size()) circuit_.scheduleEvent(program_[next_].time, handler_, 0);
    return true;
  }

  sim::Circuit& circuit_;
  sim::Circuit::HandlerId handler_;
  sim::SignalId stim_;
  const Program& program_;
  std::function<void(bool)> set_hold_;
  std::function<double()> sample_;
  std::size_t next_ = 0;
};

using Waveform = testing::PfdRun::Waveform;

/// What a run produced. Unobserved fused runs know PLLREF and PLLFB only by
/// their rising edges (what the loop's taps hear).
struct Record {
  Waveform ref, fb, up, dn;
  std::vector<double> vc;
};

Waveform waveformOf(const sim::EdgeRecorder& rec) {
  return {rec.risingEdges(), rec.fallingEdges()};
}

Record runOracle(const PllConfig& cfg, const Program& program) {
  sim::Circuit c;
  const sim::SignalId stim = c.addSignal("stimulus");
  testing::NetlistLoop loop(c, stim, cfg);
  sim::EdgeRecorder ref(c, loop.pllref), fb(c, loop.pllfb), up(c, loop.pfd.up),
      dn(c, loop.pfd.dn);
  ProgramRunner runner(
      c, stim, program, [&](bool v) { c.setNow(loop.hold, v); },
      [&] { return loop.vco.filter().controlVoltage(c.now()); });
  c.run(runner.end());
  return {waveformOf(ref), waveformOf(fb), waveformOf(up), waveformOf(dn), runner.samples};
}

/// Records the fused loop through its taps.
struct TapRecorder : LoopTap {
  Record r;
  void inputRose(bool fb, double t) override { (fb ? r.fb : r.ref).rising.push_back(t); }
  bool pumpChanged(bool dn, bool high, double now) override {
    Waveform& q = dn ? r.dn : r.up;
    (high ? q.rising : q.falling).push_back(now);
    return false;
  }
};

/// The fused loop under a program. `observe` hangs recorders on the loop's
/// nets (PLLREF, PLLFB, UP, DN), which it then writes. (An observed VCO
/// output would make the VCO stop at every half-cycle, which moves PLLFB by
/// phase-accumulator rounding; vco_divider_test covers that.)
struct FusedBench {
  sim::Circuit c;
  sim::SignalId stim = c.addSignal("stimulus");
  sim::SignalId ext = c.addSignal("ext_ref");
  CpPll pll;
  TapRecorder taps;
  ProgramRunner runner;
  std::deque<sim::EdgeRecorder> nets;

  FusedBench(const PllConfig& cfg, const Program& program, bool observe)
      : pll(c, ext, stim, cfg),
        runner(
            c, stim, program, [this](bool v) { pll.setHold(v); },
            [this] { return pll.controlVoltageNow(); }) {
    pll.setTestMode(true);
    pll.addTap(taps);
    if (observe) {
      for (const sim::SignalId net : {pll.ref(), pll.feedback(), pll.pfdUp(), pll.pfdDn()})
        nets.emplace_back(c, net);
    }
  }

  Record observedRecord() const {
    return {waveformOf(nets[0]), waveformOf(nets[1]), waveformOf(nets[2]), waveformOf(nets[3]),
            runner.samples};
  }
};

void expectSame(const std::vector<double>& got, const std::vector<double>& want,
                const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], want[i]) << what << " " << i;
}

void expectSameWaveform(const Waveform& got, const Waveform& want, const std::string& net,
                        bool rising_only = false) {
  expectSame(got.rising, want.rising, net + " rising");
  if (!rising_only) expectSame(got.falling, want.falling, net + " falling");
}

/// Both fused variants against the oracle.
void expectEquivalent(const PllConfig& cfg, const Program& program) {
  const Record want = runOracle(cfg, program);
  // The program must exercise the loop: pump pulses and filter movement.
  ASSERT_GT(want.up.rising.size(), 100u);
  ASSERT_GT(want.fb.rising.size(), 100u);
  for (const bool observe : {false, true}) {
    SCOPED_TRACE(observe ? "loop nets observed" : "loop nets unobserved");
    FusedBench b(cfg, program, observe);
    b.c.run(b.runner.end());
    Record got = observe ? b.observedRecord() : b.taps.r;
    got.vc = b.runner.samples;
    expectSameWaveform(got.ref, want.ref, "PLLREF", !observe);
    expectSameWaveform(got.fb, want.fb, "PLLFB", !observe);
    expectSameWaveform(got.up, want.up, "UP");
    expectSameWaveform(got.dn, want.dn, "DN");
    expectSame(got.vc, want.vc, "filter voltage sample");
    // The taps hear the same edges whether or not the nets are written.
    expectSameWaveform(b.taps.r.up, want.up, "tapped UP");
    expectSameWaveform(b.taps.r.fb, want.fb, "tapped PLLFB", true);
  }
}

struct Pump {
  const char* name;
  PllConfig (*config)();
};

void PrintTo(const Pump& p, std::ostream* os) { *os << p.name; }

PllConfig voltagePump() { return scaledTestConfig(); }
PllConfig currentPump() { return scaledCurrentPumpConfig(); }

class LoopEquivalence : public ::testing::TestWithParam<std::tuple<Pump, uint64_t>> {};

TEST_P(LoopEquivalence, MatchesTheNetlistWithHoldToggled) {
  const PllConfig cfg = std::get<0>(GetParam()).config();
  const Program p = makeProgram(std::get<1>(GetParam()), 1.0 / cfg.ref_frequency_hz, 700, true);
  ASSERT_GT(std::count_if(p.begin(), p.end(),
                          [](const Action& a) { return a.kind == Action::Kind::Hold; }),
            6);
  expectEquivalent(cfg, p);
}

TEST_P(LoopEquivalence, MatchesTheNetlistWithoutHold) {
  const PllConfig cfg = std::get<0>(GetParam()).config();
  expectEquivalent(cfg,
                   makeProgram(std::get<1>(GetParam()) ^ 0xb01d, 1.0 / cfg.ref_frequency_hz, 500,
                               false));
}

/// Hold toggled half a mux delay before PLLFB edges: after the divider's
/// VCO edge, before its output reaches the hold mux. The toggle times come
/// from oracle runs: each adds one toggle before the first PLLFB edge a few
/// periods after the previous toggle (the edge is decided before the toggle,
/// so adding it leaves the edge in place).
TEST_P(LoopEquivalence, MatchesTheNetlistWithHoldToggledInsideTheFeedbackMuxWindow) {
  const PllConfig cfg = std::get<0>(GetParam()).config();
  const double period = 1.0 / cfg.ref_frequency_hz;
  Program p = makeProgram(std::get<1>(GetParam()) ^ 0xfeed, period, 300, false);
  double last = 0.02;  // after lock acquisition
  bool held = false;
  for (int toggle = 0; toggle < 8; ++toggle) {
    const Record r = runOracle(cfg, p);
    std::vector<double> edges = r.fb.rising;
    edges.insert(edges.end(), r.fb.falling.begin(), r.fb.falling.end());
    std::sort(edges.begin(), edges.end());
    const auto next = std::find_if(edges.begin(), edges.end(),
                                   [&](double e) { return e > last + 3.0 * period; });
    ASSERT_NE(next, edges.end());
    last = *next - 0.5 * kMuxDelay;
    held = !held;
    p.push_back({last, Action::Kind::Hold, held});
    sortProgram(p);
  }
  expectEquivalent(cfg, p);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, LoopEquivalence,
    ::testing::Combine(::testing::Values(Pump{"Voltage4046", voltagePump},
                                         Pump{"CurrentSteering", currentPump}),
                       ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<std::tuple<Pump, uint64_t>>& info) {
      return std::string(std::get<0>(info.param).name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

/// A fork (Circuit::copyStateFrom, CpPll::copyStateFrom) taken at any
/// instant continues exactly as the unforked run: forks are cut inside the
/// input mux's delay and the PFD's set/reset windows after stimulus edges,
/// and around PLLFB edges, each running three reference periods.
TEST(LoopFork, ForkAtAnyInstantContinuesAsTheSource) {
  const PllConfig cfg = scaledTestConfig();
  const double period = 1.0 / cfg.ref_frequency_hz;
  const Program p = makeProgram(5, period, 400, true);
  /// Everything the fork hears, stamped with the circuit time it heard it.
  struct Heard {
    double at;
    int what;  // 0 PLLREF rise, 1 PLLFB rise, 2 UP, 3 DN, 4 sample
    double t;
    bool value;
    bool operator==(const Heard&) const = default;
  };
  struct Listener : LoopTap {
    sim::Circuit& c;
    std::vector<Heard> heard;
    explicit Listener(sim::Circuit& circuit) : c(circuit) {}
    void inputRose(bool fb, double t) override { heard.push_back({c.now(), fb ? 1 : 0, t, true}); }
    bool pumpChanged(bool dn, bool high, double now) override {
      heard.push_back({now, dn ? 3 : 2, now, high});
      return false;
    }
  };
  struct Bench {
    sim::Circuit c;
    sim::SignalId stim = c.addSignal("stimulus");
    sim::SignalId ext = c.addSignal("ext_ref");
    CpPll pll;
    Listener listener{c};
    ProgramRunner runner;
    explicit Bench(const PllConfig& cfg, const Program& p)
        : pll(c, ext, stim, cfg),
          runner(
              c, stim, p, [this](bool v) { pll.setHold(v); },
              [this] {
                const double v = pll.controlVoltageNow();
                listener.heard.push_back({c.now(), 4, v, false});
                return v;
              }) {
      pll.setTestMode(true);
      pll.addTap(listener);
    }
  };
  Bench unforked(cfg, p);
  unforked.c.run(unforked.runner.end());

  std::vector<double> cuts;
  int stim_rises = 0;
  for (const Action& a : p) {
    if (a.kind != Action::Kind::Stim || !a.value || ++stim_rises % 23 != 0) continue;
    for (const double ns : {0.0, 0.2, 0.7, 1.0, 1.3, 2.0, 3.0, 4.5, 5.0, 6.5, 8.0, 11.0, 14.0})
      cuts.push_back(a.time + ns * 1e-9);
  }
  int fb_rises = 0;
  for (const Heard& h : unforked.listener.heard) {
    if (h.what != 1 || ++fb_rises % 29 != 0) continue;
    for (const double ns : {-1.7, -1.5, -0.5, 0.5, 1.5, 4.5, 7.0}) cuts.push_back(h.t + ns * 1e-9);
  }
  std::sort(cuts.begin(), cuts.end());
  ASSERT_GT(cuts.size(), 150u);

  Bench source(cfg, p);
  const double horizon = 3.0 * period;
  for (const double cut : cuts) {
    if (cut + horizon > source.runner.end()) break;
    source.c.run(cut);
    Bench fork(cfg, p);
    fork.c.copyStateFrom(source.c);
    fork.pll.copyStateFrom(source.pll);
    fork.runner.copyStateFrom(source.runner);
    fork.c.run(cut + horizon);
    std::vector<Heard> want;
    for (const Heard& h : unforked.listener.heard)
      if (h.at > cut && h.at <= cut + horizon) want.push_back(h);
    ASSERT_EQ(fork.listener.heard, want) << "fork at " << cut;
  }
}

/// The fused loop keeps one handler event in flight and moves it when an
/// input edge brings its next instant forward: tracking an FM reference,
/// with hold toggled, no event is superseded.
TEST(CpPll, PumpEdgesSupersedeNoEvent) {
  const PllConfig cfg = scaledTestConfig();
  sim::Circuit c;
  const sim::SignalId ext = c.addSignal("ext_ref");
  const sim::SignalId stim = c.addSignal("stimulus");
  const sim::SignalId marker = c.addSignal("marker");
  SineFmSource::Config scfg;
  scfg.nominal_hz = cfg.ref_frequency_hz;
  SineFmSource source(c, stim, marker, scfg);
  source.setModulation(150.0, 100.0);
  CpPll pll(c, ext, stim, cfg);
  pll.setTestMode(true);
  TapRecorder taps;
  pll.addTap(taps);
  for (int k = 1; k <= 6; ++k)
    c.scheduleCallback(k * 7.3e-3, [&pll, k](double) { pll.setHold(k % 2 == 1); });
  c.run(0.05);
  ASSERT_GT(taps.r.up.rising.size(), 200u);
  EXPECT_EQ(c.swallowedEventCount(), 0u);
  EXPECT_EQ(c.processedEventCount(), c.deliveredEventCount());
}

}  // namespace
}  // namespace pllbist::pll
