// The loop's pulled reference against the same source driving a net.
//
// Each of the three reference sources the loop's input mux can pull (the
// Figure 4 DCO under the FSK program, with the test-mode select switched
// off and on again, the sine-FM generator with edge jitter, and the delay
// line under the PM program over its clock) runs twice on the same seeded
// program:
// once driving its net with kernel events while pll::CpPll hears the net,
// and once pulled by the loop (sim::SourceMode::Pulled). Every reference
// and feedback edge the loop decides, every UP/DN change, and every
// filter-voltage sample must be bit-equal, edge for edge and at the same
// circuit time: with the stimulus net unobserved, observed (its edges then
// equal the driven net's), and named by a drop-probability-0 fault rule
// from the start or from mid-run (the loop then hears the net). A fork of
// the pulled bench taken at a seeded random instant must continue exactly
// as a fork of the driven bench taken there; under jitter both forks draw
// from their own seed, and an edge decided before the cut keeps its draw.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bist/dco.hpp"
#include "bist/delay_line.hpp"
#include "bist/modulator.hpp"
#include "pll/config.hpp"
#include "pll/cppll.hpp"
#include "pll/sources.hpp"
#include "sim/circuit.hpp"
#include "sim/fault_injector.hpp"
#include "sim/primitives.hpp"

namespace pllbist::bist {
namespace {

enum class Kind { Fsk, Sine, Pm };

std::string kindName(Kind k) {
  switch (k) {
    case Kind::Fsk: return "Fsk";
    case Kind::Sine: return "Sine";
    case Kind::Pm: return "Pm";
  }
  return "?";
}

constexpr double kRef = 10e3;  // scaledTestConfig's reference frequency
constexpr double kDeviation = 300.0;

/// One program step, run by a handler event (forks cannot carry closures).
struct Action {
  enum class What { Hold, Start, Stop, Park, TestMode, Rule, Sample };
  double time;
  What what;
  double arg = 0.0;  ///< Start: the modulation frequency; Hold, TestMode: 0 or 1
};

std::vector<Action> makeProgram(Kind kind, uint64_t seed, double end) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> jitter(-0.3e-3, 0.3e-3);
  std::vector<Action> p = {{2e-3 + jitter(rng), Action::What::Start, 500.0},
                           {14e-3 + jitter(rng), Action::What::Park},
                           {19e-3 + jitter(rng), Action::What::Start, 1500.0},
                           {30e-3 + jitter(rng), Action::What::Stop},
                           {33e-3 + jitter(rng), Action::What::Start, 800.0}};
  if (kind == Kind::Fsk) {
    p.push_back({11e-3 + jitter(rng), Action::What::TestMode, 0.0});
    p.push_back({12.2e-3 + jitter(rng), Action::What::TestMode, 1.0});
  }
  bool held = false;
  for (double t = 4e-3; t < end - 1e-3; t += 1.5e-3 + 3.0 * std::abs(jitter(rng))) {
    held = !held;
    p.push_back({t, Action::What::Hold, held ? 1.0 : 0.0});
  }
  for (double t = 7e-6; t < end; t += 37e-6) p.push_back({t, Action::What::Sample});
  std::stable_sort(p.begin(), p.end(),
                   [](const Action& a, const Action& b) { return a.time < b.time; });
  return p;
}

/// Everything the loop tells its taps, stamped with the circuit time.
struct Heard {
  double at;
  int what;  // 0 PLLREF rise, 1 PLLFB rise, 2 UP, 3 DN, 4 filter sample
  double t;
  bool value;
  bool operator==(const Heard&) const = default;
};

struct Listener : pll::LoopTap {
  sim::Circuit& c;
  std::vector<Heard> heard;
  explicit Listener(sim::Circuit& circuit) : c(circuit) {}
  void inputRose(bool fb, double t) override { heard.push_back({c.now(), fb ? 1 : 0, t, true}); }
  bool pumpChanged(bool dn, bool high, double now) override {
    heard.push_back({now, dn ? 3 : 2, now, high});
    return false;
  }
};

struct BenchSetup {
  Kind kind;
  bool pulled;
  bool observe_stimulus = false;
  double rule_at = -1.0;  ///< when a drop-probability-0 rule names the stimulus; < 0: never
};

/// One bench: the source for `kind`, driving its net or pulled, the loop,
/// a listener, and the program runner.
class Bench : private sim::Circuit::Handler {
 public:
  sim::Circuit c;
  sim::SignalId ext = c.addSignal("ext_ref");
  sim::SignalId stim = c.addSignal("stimulus");
  sim::SignalId marker = c.addSignal("marker");
  sim::SignalId raw = c.addSignal("raw_ref");
  Listener listener{c};
  std::unique_ptr<sim::EdgeRecorder> stim_edges;

  Bench(const BenchSetup& s, const std::vector<Action>& program)
      : program_(program), handler_(c.addHandler(*this)) {
    const pll::PllConfig cfg = pll::scaledTestConfig();
    const sim::SourceMode mode = s.pulled ? sim::SourceMode::Pulled : sim::SourceMode::Drive;
    sim::ReferenceSource* test = nullptr;
    if (s.kind == Kind::Fsk) {
      dco_ = std::make_unique<Dco>(c, stim, Dco::Config{1e6, 100, 0.0}, mode);
      FskModulator::Config m;
      m.nominal_hz = kRef;
      m.deviation_hz = kDeviation;
      program_src_ = std::make_unique<FskModulator>(c, *dco_, marker, m);
      test = dco_.get();
    } else if (s.kind == Kind::Sine) {
      pll::SineFmSource::Config sc;
      sc.nominal_hz = kRef;
      sc.edge_jitter_rms_s = 50e-9;
      sc.jitter_seed = 5;
      sine_ = std::make_unique<pll::SineFmSource>(c, stim, marker, sc, mode);
      test = sine_.get();
    } else {
      pm_clock_ = std::make_unique<sim::ClockSource>(c, raw, 1.0 / kRef, 0.0, mode);
      DelayLineModulator::Config d;
      d.taps = 9;
      d.tap_delay_s = 1.0 / (8.0 * kRef * 8.0);
      d.nominal_hz = kRef;
      if (s.pulled) {
        line_ = std::make_unique<DelayLineModulator>(c, *pm_clock_, stim, marker, d);
        test = line_.get();
      } else {
        line_ = std::make_unique<DelayLineModulator>(c, raw, stim, marker, d);
      }
    }
    if (s.pulled)
      pll_ = std::make_unique<pll::CpPll>(c, *test, cfg);
    else
      pll_ = std::make_unique<pll::CpPll>(c, ext, stim, cfg);
    pll_->addTap(listener);
    pll_->setTestMode(true);
    // The driven net is written anyway, so it is always recorded there.
    if (s.observe_stimulus || !s.pulled) stim_edges = std::make_unique<sim::EdgeRecorder>(c, stim);
    if (s.rule_at >= 0.0) {
      program_.push_back({s.rule_at, Action::What::Rule});
      std::stable_sort(program_.begin(), program_.end(),
                       [](const Action& a, const Action& b) { return a.time < b.time; });
    }
    c.scheduleEvent(program_.front().time, handler_, 0);
  }

  [[nodiscard]] double end() const { return program_.back().time + 1e-6; }

  /// Fork support: take `source`'s state; this bench hears from now on.
  void copyStateFrom(const Bench& source) {
    c.copyStateFrom(source.c);
    pll_->copyStateFrom(*source.pll_);
    if (dco_) dco_->copyStateFrom(*source.dco_);
    if (pm_clock_) pm_clock_->copyStateFrom(*source.pm_clock_);
    if (sine_) sine_->copyStateFrom(*source.sine_);
    if (program_src_) program_src_->copyStateFrom(*source.program_src_);
    if (line_) line_->copyStateFrom(*source.line_);
    next_ = source.next_;
  }

 private:
  bool onEvent(uint32_t, double now) override {
    const Action& a = program_[next_++];
    SlotProgram* program =
        program_src_ ? static_cast<SlotProgram*>(program_src_.get()) : line_.get();
    switch (a.what) {
      case Action::What::Hold:
        pll_->setHold(a.arg != 0.0);
        break;
      case Action::What::TestMode:
        pll_->setTestMode(a.arg != 0.0);
        break;
      case Action::What::Start:
        if (sine_) {
          sine_->setCarrier(kRef);
          sine_->setModulation(a.arg, kDeviation);
        } else {
          program->start(a.arg);
        }
        break;
      case Action::What::Stop:
        if (sine_) {
          sine_->setModulation(0.0, 0.0);
          sine_->setCarrier(kRef);
        } else {
          program->stop();
        }
        break;
      case Action::What::Park:
        if (sine_) {
          sine_->setModulation(0.0, 0.0);
          sine_->setCarrier(kRef + kDeviation);
        } else {
          program->park();
        }
        break;
      case Action::What::Rule:
        injector_ = std::make_unique<sim::FaultInjector>(c, 9);
        injector_->dropEdges(stim, 0.0);
        break;
      case Action::What::Sample:
        listener.heard.push_back({now, 4, pll_->controlVoltageNow(), false});
        break;
    }
    if (next_ < program_.size()) c.scheduleEvent(program_[next_].time, handler_, 0);
    return true;
  }

  std::vector<Action> program_;
  sim::Circuit::HandlerId handler_;
  std::size_t next_ = 0;
  std::unique_ptr<sim::ClockSource> pm_clock_;
  std::unique_ptr<Dco> dco_;
  std::unique_ptr<pll::SineFmSource> sine_;
  std::unique_ptr<FskModulator> program_src_;
  std::unique_ptr<DelayLineModulator> line_;
  std::unique_ptr<pll::CpPll> pll_;
  // Declared last: destroyed first, while the circuit is still alive.
  std::unique_ptr<sim::FaultInjector> injector_;
};

constexpr double kEnd = 40e-3;

void expectSameHeard(const std::vector<Heard>& got, const std::vector<Heard>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Heard& g = got[i];
    const Heard& w = want[i];
    ASSERT_TRUE(g == w) << "record " << i << ": heard (" << g.at << ", " << g.what << ", " << g.t
                        << ", " << g.value << "), want (" << w.at << ", " << w.what << ", "
                        << w.t << ", " << w.value << ")";
  }
}

class PulledReference : public ::testing::TestWithParam<std::tuple<Kind, uint64_t>> {};

TEST_P(PulledReference, MatchesTheSourceDrivingTheNet) {
  const auto [kind, seed] = GetParam();
  const std::vector<Action> program = makeProgram(kind, seed, kEnd);
  Bench driven({kind, false}, program);
  driven.c.run(driven.end());
  const std::vector<double> rising = driven.stim_edges->risingEdges();
  const std::vector<double> falling = driven.stim_edges->fallingEdges();
  ASSERT_GT(rising.size(), 300u);
  const double rule_mid_run = program[program.size() / 3].time + 0.4e-6;
  for (const BenchSetup& s : {BenchSetup{kind, true, false}, BenchSetup{kind, true, true},
                         BenchSetup{kind, true, false, 0.0}, BenchSetup{kind, true, true, rule_mid_run}}) {
    SCOPED_TRACE(std::string(s.observe_stimulus ? "stimulus observed" : "stimulus unobserved") +
                 (s.rule_at < 0.0 ? "" : s.rule_at == 0.0 ? ", rule from the start"
                                                         : ", rule from mid-run"));
    Bench pulled(s, program);
    pulled.c.run(pulled.end());
    ASSERT_GT(driven.listener.heard.size(), 3000u);
    expectSameHeard(pulled.listener.heard, driven.listener.heard);
    if (s.observe_stimulus) {
      EXPECT_EQ(pulled.stim_edges->risingEdges(), rising);
      EXPECT_EQ(pulled.stim_edges->fallingEdges(), falling);
    }
  }
  // Pulled, no kernel event carries a reference edge: each reference cycle
  // costs the driven run at least one more event.
  Bench pulled({kind, true}, program);
  pulled.c.run(pulled.end());
  EXPECT_LE(pulled.c.processedEventCount() + rising.size(), driven.c.processedEventCount());
}

TEST_P(PulledReference, ForkAtRandomInstantsContinuesAsADrivenFork) {
  const auto [kind, seed] = GetParam();
  const std::vector<Action> program = makeProgram(kind, seed, kEnd);
  std::mt19937_64 rng(seed ^ 0xf0f0);
  std::uniform_real_distribution<double> when(1e-3, kEnd - 5e-3);
  std::vector<double> cuts;
  for (int k = 0; k < 10; ++k) cuts.push_back(when(rng));
  // Cuts just before stimulus edges fall between a decision and its edge:
  // a jittered toggle before its emission, a delay-line tap sample before
  // the delayed edge.
  Bench recorded({kind, false}, program);
  recorded.c.run(kEnd - 5e-3);
  const std::vector<double>& edges = recorded.stim_edges->risingEdges();
  for (int k = 0; k < 6; ++k) {
    const double e = edges[std::uniform_int_distribution<std::size_t>(20, edges.size() - 1)(rng)];
    cuts.push_back(e - 1e-9);
    cuts.push_back(e - 50e-9);
  }
  std::sort(cuts.begin(), cuts.end());
  Bench pulled_source({kind, true}, program);
  Bench driven_source({kind, false}, program);
  constexpr double kHorizon = 3e-3;
  for (const double cut : cuts) {
    SCOPED_TRACE("fork at " + std::to_string(cut));
    pulled_source.c.run(cut);
    driven_source.c.run(cut);
    Bench pulled_fork({kind, true}, program);
    pulled_fork.copyStateFrom(pulled_source);
    Bench driven_fork({kind, false}, program);
    driven_fork.copyStateFrom(driven_source);
    pulled_fork.c.run(cut + kHorizon);
    driven_fork.c.run(cut + kHorizon);
    ASSERT_GT(driven_fork.listener.heard.size(), 100u);
    expectSameHeard(pulled_fork.listener.heard, driven_fork.listener.heard);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sources, PulledReference,
    ::testing::Combine(::testing::Values(Kind::Fsk, Kind::Sine, Kind::Pm),
                       ::testing::Values(1u, 2u)),
    [](const ::testing::TestParamInfo<std::tuple<Kind, uint64_t>>& info) {
      return kindName(std::get<0>(info.param)) + "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace pllbist::bist
