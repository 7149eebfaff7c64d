// The loop's run-ahead (pll::CpPll handling its own instants between queued
// events, Circuit::horizon) and the peak detector's skipped MFREQ writes
// change no result:
//  - a run cut at seeded random instants, and a fork taken at each cut,
//    continue exactly as the uncut run;
//  - a step loop waiting for lock sees it at the same instant whether the
//    loop runs ahead or, with its UP/DN nets observed, stops at every PFD
//    write;
//  - MFREQ's edges are those of a detector that writes at every sampling
//    clock, when an interceptor dropped or delayed an MFREQ change and was
//    then removed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "bist/testbench.hpp"
#include "pll/probes.hpp"
#include "sim/primitives.hpp"
#include "support/test_configs.hpp"

namespace pllbist::bist {
namespace {

using pllbist::testing::fastSweepOptions;
using pllbist::testing::fastTestConfig;

/// What a bench's loop and detector did, each item stamped with the
/// circuit time at which it happened.
struct Heard {
  double at;
  int what;  // 0 PLLREF rise, 1 PLLFB rise, 2 UP, 3 DN
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

/// A sweep bench in its lock acquisition, listened to.
struct Bench {
  SweepTestbench tb;
  Listener listener{tb.circuit()};
  sim::EdgeRecorder mfreq{tb.circuit(), tb.mfreq()};
  explicit Bench(StimulusKind kind) : tb(fastTestConfig(), fastSweepOptions(kind, 1)) {
    tb.pll().addTap(listener);
  }
  sim::Circuit& c() { return tb.circuit(); }
};

std::vector<Heard> heardAfter(const std::vector<Heard>& all, double cut) {
  std::vector<Heard> out;
  for (const Heard& h : all)
    if (h.at > cut) out.push_back(h);
  return out;
}

std::vector<double> after(const std::vector<double>& edges, double cut) {
  std::vector<double> out;
  for (const double e : edges)
    if (e > cut) out.push_back(e);
  return out;
}

class LoopRunCut : public ::testing::TestWithParam<StimulusKind> {};

/// ROADMAP item 3's gate: run() ends bound the run-ahead, so cutting the
/// run anywhere, and forking there, changes nothing the loop does.
TEST_P(LoopRunCut, ForkAtSeededRandomCutsContinuesAsTheUncutRun) {
  constexpr double kEnd = 0.04;  // through lock acquisition
  Bench uncut(GetParam());
  uncut.c().run(kEnd);
  ASSERT_GT(uncut.listener.heard.size(), 1000u);
  ASSERT_FALSE(uncut.mfreq.risingEdges().empty());

  std::mt19937_64 rng(0x5eed + static_cast<int>(GetParam()));
  std::vector<double> cuts(24);
  for (double& t : cuts) t = std::uniform_real_distribution<double>(0.0, kEnd)(rng);
  std::sort(cuts.begin(), cuts.end());

  Bench cut(GetParam());
  for (const double t : cuts) {
    cut.c().run(t);
    Bench fork(GetParam());
    fork.tb.copyStateFrom(cut.tb);
    fork.c().run(kEnd);
    SCOPED_TRACE("fork at " + std::to_string(t));
    ASSERT_EQ(fork.listener.heard, heardAfter(uncut.listener.heard, t));
    EXPECT_EQ(fork.mfreq.risingEdges(), after(uncut.mfreq.risingEdges(), t));
    EXPECT_EQ(fork.mfreq.fallingEdges(), after(uncut.mfreq.fallingEdges(), t));
    EXPECT_EQ(fork.tb.pll().pfdWrites(), uncut.tb.pll().pfdWrites());
    EXPECT_EQ(fork.tb.pll().vcoStops(), uncut.tb.pll().vcoStops());
    EXPECT_EQ(fork.tb.pll().controlVoltageNow(), uncut.tb.pll().controlVoltageNow());
  }
  cut.c().run(kEnd);
  EXPECT_EQ(cut.listener.heard, uncut.listener.heard);
  EXPECT_EQ(cut.mfreq.risingEdges(), uncut.mfreq.risingEdges());
  EXPECT_EQ(cut.tb.pll().controlVoltageNow(), uncut.tb.pll().controlVoltageNow());
  // A cut adds at most one kernel event: the run-ahead stops there.
  EXPECT_GE(cut.c().processedEventCount(), uncut.c().processedEventCount());
  EXPECT_LE(cut.c().processedEventCount(), uncut.c().processedEventCount() + cuts.size());
}

INSTANTIATE_TEST_SUITE_P(Stimuli, LoopRunCut,
                         ::testing::Values(StimulusKind::MultiToneFsk, StimulusKind::PureSineFm,
                                           StimulusKind::DelayLinePm),
                         [](const ::testing::TestParamInfo<StimulusKind>& info) {
                           switch (info.param) {
                             case StimulusKind::MultiToneFsk: return "MultiToneFsk";
                             case StimulusKind::PureSineFm: return "PureSineFm";
                             case StimulusKind::DelayLinePm: return "DelayLinePm";
                             default: return "Other";
                           }
                         });

/// Lock as a step loop sees it: `while (!isLocked()) step()`, twice (the
/// second time after a reset, as the relock wait does).
struct LockSeen {
  double now[2];
  double lock_time[2];
  double control_v[2];
  uint64_t processed;
};

LockSeen waitForLock(bool observe_pump) {
  SweepTestbench tb(fastTestConfig(), fastSweepOptions(StimulusKind::MultiToneFsk, 1));
  sim::Circuit& c = tb.circuit();
  if (observe_pump)
    for (const sim::SignalId net : {tb.pll().pfdUp(), tb.pll().pfdDn()})
      c.onChange(net, [](double, bool) {});
  pll::LockDetector& lock = tb.lockDetector();
  LockSeen seen{};
  for (int i = 0; i < 2; ++i) {
    if (i == 1) {
      c.run(c.now() + 0.01);
      lock.reset();
    }
    while (!lock.isLocked()) {
      if (!c.step()) ADD_FAILURE() << "queue ran dry";
    }
    seen.now[i] = c.now();
    seen.lock_time[i] = lock.lockTime();
    seen.control_v[i] = tb.pll().controlVoltageNow();
  }
  seen.processed = c.processedEventCount();
  return seen;
}

TEST(LoopRunAhead, StepLoopSeesLockWhereAStepPerPfdWriteDoes) {
  // Observed UP/DN nets are written at every PFD write, which queues an
  // event and so ends every run there: the one-step-per-instant reference.
  const LockSeen per_write = waitForLock(true);
  const LockSeen ahead = waitForLock(false);
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE("lock wait " + std::to_string(i));
    EXPECT_EQ(ahead.now[i], per_write.now[i]);
    EXPECT_EQ(ahead.now[i], ahead.lock_time[i]);
    EXPECT_EQ(ahead.lock_time[i], per_write.lock_time[i]);
    EXPECT_EQ(ahead.control_v[i], per_write.control_v[i]);
  }
  EXPECT_LT(ahead.processed, per_write.processed);
}

/// A bench that has locked and started measuring a point, and the time at
/// which the MFREQ runs below end.
struct PointBench {
  SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 1);
  SweepTestbench tb{fastTestConfig(), sweep};
  sim::Circuit& c = tb.circuit();
  sim::EdgeRecorder mfreq{c, tb.mfreq()};
  double end = 0.0;
  PointBench() {
    c.run(sweep.lock_wait_s);
    tb.sequencer().measurePoint(sweep.modulation_frequencies_hz.front(),
                                [](TestSequencer::PointResult) {});
    end = c.now() + 0.05;
  }
};

/// Every MFREQ write of the point, as an interceptor that passes them all
/// sees it: when it lands, its value, and whether it changes MFREQ.
struct MfreqWrite {
  double t;
  bool value;
  bool change;
};

std::vector<MfreqWrite> mfreqWrites() {
  PointBench b;
  std::vector<MfreqWrite> out;
  b.c.markFaultTarget(b.tb.mfreq());
  b.c.setEventInterceptor([&](sim::SignalId id, double now, bool value) {
    if (id == b.tb.mfreq()) out.push_back({now, value, value != b.c.value(id)});
    return sim::Circuit::InterceptVerdict{};
  });
  b.c.run(b.end);
  return out;
}

/// MFREQ's edges over the point when an interceptor installed as the point
/// starts acts on the first MFREQ write that would change its level (a
/// drop, or a delay of `delay_s` that lets later writes land first), then
/// passes every write. With `remove`, it is removed right after that
/// verdict, in the same instant, and the detector again skips the writes
/// that cannot change MFREQ.
struct MfreqRun {
  std::vector<double> rising;
  std::vector<double> falling;
  uint64_t swallowed;
  bool acted;
};

MfreqRun mfreqWithOneFault(bool drop, double delay_s, bool remove) {
  PointBench b;
  sim::Circuit& c = b.c;
  bool acted = false;
  c.markFaultTarget(b.tb.mfreq());
  c.setEventInterceptor([&, drop, delay_s, remove](sim::SignalId id, double now, bool value) {
    sim::Circuit::InterceptVerdict v;
    if (acted || id != b.tb.mfreq() || value == c.value(id)) return v;
    acted = true;
    if (remove) c.scheduleCallback(now, [&c](double) { c.setEventInterceptor(nullptr); });
    v.action = drop ? sim::Circuit::InterceptVerdict::Action::Drop
                    : sim::Circuit::InterceptVerdict::Action::Delay;
    v.delay_s = delay_s;
    return v;
  });
  c.run(b.end);
  return {b.mfreq.risingEdges(), b.mfreq.fallingEdges(), c.swallowedEventCount(), acted};
}

void expectSameEdges(double delay_s, bool drop) {
  const MfreqRun kept = mfreqWithOneFault(drop, delay_s, false);
  const MfreqRun removed = mfreqWithOneFault(drop, delay_s, true);
  ASSERT_TRUE(kept.acted);
  ASSERT_TRUE(removed.acted);
  ASSERT_GT(kept.rising.size(), 6u);
  EXPECT_EQ(removed.rising, kept.rising);
  EXPECT_EQ(removed.falling, kept.falling);
  EXPECT_LT(removed.swallowed, kept.swallowed);  // writes were skipped
}

TEST(PeakDetectorMfreq, SkippedWritesKeepTheEdgesAfterADroppedChange) {
  expectSameEdges(0.0, true);
}

TEST(PeakDetectorMfreq, SkippedWritesKeepTheEdgesWhileADelayedChangeIsInFlight) {
  // Three reference periods: later sampling clocks write MFREQ while the
  // delayed change is queued.
  expectSameEdges(3.0 / fastTestConfig().ref_frequency_hz, false);
  // The delayed change lands after MFREQ's next reversal, 1 ns before a
  // later write of the reversed level. That write is decided before the
  // delayed one lands, when it matches MFREQ's level and the last
  // scheduled write, yet it changes MFREQ back: it must be made.
  const std::vector<MfreqWrite> w = mfreqWrites();
  const auto change = [](const MfreqWrite& x) { return x.change; };
  const auto first = std::find_if(w.begin(), w.end(), change);
  ASSERT_NE(first, w.end());
  const auto reversal = std::find_if(first + 1, w.end(), change);
  ASSERT_LT(reversal + 2, w.end());
  const MfreqWrite& later = *(reversal + 2);
  ASSERT_FALSE(later.change);
  SCOPED_TRACE("delayed to land before the write at " + std::to_string(later.t));
  expectSameEdges(later.t - 1e-9 - first->t, false);
}

}  // namespace
}  // namespace pllbist::bist
