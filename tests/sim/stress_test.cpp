#include <gtest/gtest.h>

#include <memory>
#include <random>

#include "sim/circuit.hpp"
#include "sim/primitives.hpp"
#include "support/gates.hpp"

namespace pllbist::sim {
namespace {

using testing::GatedCounter;

TEST(KernelStress, RandomScheduleDeliveredInTimeOrder) {
  Circuit c;
  const SignalId sig = c.addSignal("s");
  std::vector<double> delivered;
  c.onChange(sig, [&](double now, bool) { delivered.push_back(now); });

  std::mt19937 rng(99);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  bool value = false;
  std::vector<double> times;
  for (int i = 0; i < 5000; ++i) times.push_back(dist(rng));
  std::sort(times.begin(), times.end());
  // Shuffle the *insertion* order while keeping alternating values matched
  // to the sorted times (so every delivery is a change).
  std::vector<size_t> order(times.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<bool> values(times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    value = !value;
    values[i] = value;
  }
  for (size_t idx : order) c.scheduleSet(sig, times[idx], values[idx]);

  c.run(2.0);
  ASSERT_EQ(delivered.size(), times.size());
  for (size_t i = 1; i < delivered.size(); ++i) EXPECT_GE(delivered[i], delivered[i - 1]);
}

TEST(KernelStress, ManyClockDomainsStayConsistent) {
  Circuit c;
  struct Domain {
    SignalId clk;
    std::unique_ptr<ClockSource> src;
    std::unique_ptr<SourceDriver> drive;
    std::unique_ptr<GatedCounter> counter;
  };
  std::vector<Domain> domains;
  const double periods[] = {1e-6, 2.3e-6, 3.1e-6, 7.7e-6, 13e-6};
  for (double p : periods) {
    Domain d;
    d.clk = c.addSignal("clk");
    d.src = std::make_unique<ClockSource>(c, d.clk, p);
    d.drive = std::make_unique<SourceDriver>(c, *d.src);
    d.counter = std::make_unique<GatedCounter>(c, d.clk);
    d.counter->start();
    domains.push_back(std::move(d));
  }
  const double t_end = 10e-3;
  c.run(t_end);
  for (size_t i = 0; i < domains.size(); ++i) {
    const double expected = t_end / periods[i];
    EXPECT_NEAR(static_cast<double>(domains[i].counter->count()), expected, 2.0) << i;
  }
}

TEST(KernelStress, DividerChainComposes) {
  // /2 then /5 must equal /10 in rising-edge spacing.
  Circuit c;
  const SignalId clk = c.addSignal("clk");
  const SignalId mid = c.addSignal("mid");
  const SignalId out_chain = c.addSignal("out_chain");
  const SignalId out_direct = c.addSignal("out_direct");
  ClockSource src(c, clk, 1e-6);
  SourceDriver drive(c, src);
  DivideByN d2(c, clk, mid, 2, 1e-9);
  DivideByN d5(c, mid, out_chain, 5, 1e-9);
  DivideByN d10(c, clk, out_direct, 10, 1e-9);
  EdgeRecorder chain(c, out_chain);
  EdgeRecorder direct(c, out_direct);
  c.run(500e-6);
  ASSERT_GE(chain.risingEdges().size(), 10u);
  ASSERT_GE(direct.risingEdges().size(), 10u);
  const double chain_period = chain.risingEdges()[9] - chain.risingEdges()[8];
  const double direct_period = direct.risingEdges()[9] - direct.risingEdges()[8];
  EXPECT_NEAR(chain_period, direct_period, 1e-12);
  EXPECT_NEAR(chain_period, 10e-6, 1e-11);
}

TEST(KernelStress, DeepCombinationalChainPropagates) {
  Circuit c;
  const int depth = 64;
  std::vector<SignalId> nets{c.addSignal("in")};
  std::vector<std::unique_ptr<Inverter>> gates;
  for (int i = 0; i < depth; ++i) {
    nets.push_back(c.addSignal("n" + std::to_string(i)));
    gates.push_back(std::make_unique<Inverter>(c, nets[nets.size() - 2], nets.back(), 1e-9));
  }
  c.run(1e-6);  // settle initial X-propagation
  const bool settled = c.value(nets.back());
  c.scheduleSet(nets.front(), 2e-6, true);
  c.run(2e-6 + depth * 1e-9 + 1e-9);
  EXPECT_EQ(c.value(nets.back()), !settled);
}

TEST(KernelStress, InterleavedCallbacksAndSignals) {
  // Callbacks scheduling signals scheduling callbacks: the classic
  // re-entrancy pattern every behavioral block uses.
  Circuit c;
  const SignalId sig = c.addSignal("s");
  int hops = 0;
  std::function<void(double)> hop = [&](double now) {
    if (++hops >= 1000) return;
    c.scheduleSet(sig, now + 1e-9, !c.value(sig));
  };
  c.onChange(sig, [&](double now, bool) { hop(now); });
  c.scheduleSet(sig, 1e-9, true);
  c.run(1.0);
  EXPECT_EQ(hops, 1000);
}

TEST(KernelStress, MillionEventsComplete) {
  Circuit c;
  const SignalId clk = c.addSignal("clk");
  ClockSource src(c, clk, 2e-6);  // 1M events over 1 s
  SourceDriver drive(c, src);
  GatedCounter counter(c, clk);
  counter.start();
  c.run(1.0);
  EXPECT_NEAR(static_cast<double>(counter.count()), 500000.0, 2.0);
  EXPECT_GE(c.processedEventCount(), 1000000u);
}

}  // namespace
}  // namespace pllbist::sim
