#include "sim/primitives.hpp"

#include <gtest/gtest.h>

#include "sim/circuit.hpp"
#include "support/gates.hpp"

namespace pllbist::sim {
namespace {

using testing::AndGate;
using testing::Buffer;
using testing::DFlipFlop;
using testing::GatedCounter;
using testing::Mux2;

constexpr double kD = 1e-9;  // standard gate delay in these tests

TEST(Inverter, InvertsWithDelay) {
  Circuit c;
  SignalId in = c.addSignal("in");
  SignalId out = c.addSignal("out");
  Inverter inv(c, in, out, kD);
  c.run(1e-8);  // settle initial evaluation
  EXPECT_TRUE(c.value(out));
  c.scheduleSet(in, 1e-6, true);
  c.run(1e-6 + 0.5 * kD);
  EXPECT_TRUE(c.value(out));  // not yet propagated
  c.run(1e-6 + 2.0 * kD);
  EXPECT_FALSE(c.value(out));
}

TEST(Inverter, ZeroDelayRejected) {
  Circuit c;
  SignalId in = c.addSignal("in");
  SignalId out = c.addSignal("out");
  EXPECT_THROW(Inverter(c, in, out, 0.0), std::invalid_argument);
}

TEST(Buffer, PropagatesBothEdges) {
  Circuit c;
  SignalId in = c.addSignal("in");
  SignalId out = c.addSignal("out");
  Buffer buf(c, in, out, kD);
  c.scheduleSet(in, 1e-6, true);
  c.scheduleSet(in, 2e-6, false);
  c.run(3e-6);
  EXPECT_FALSE(c.value(out));
  EdgeRecorder rec(c, out);  // too late to see edges; just check final value
  EXPECT_FALSE(c.value(out));
}

TEST(AndGate, TruthTable) {
  Circuit c;
  SignalId a = c.addSignal("a");
  SignalId b = c.addSignal("b");
  SignalId out = c.addSignal("out");
  AndGate gate(c, a, b, out, kD);
  c.run(1e-8);
  EXPECT_FALSE(c.value(out));
  c.setNow(a, true);
  c.run(1e-8 + 2 * kD);
  EXPECT_FALSE(c.value(out));
  c.setNow(b, true);
  c.run(2e-8 + 4 * kD);
  EXPECT_TRUE(c.value(out));
  c.setNow(a, false);
  c.run(3e-8 + 6 * kD);
  EXPECT_FALSE(c.value(out));
}

TEST(Mux2, SelectsAndFollowsInputs) {
  Circuit c;
  SignalId a = c.addSignal("a", true);
  SignalId b = c.addSignal("b", false);
  SignalId sel = c.addSignal("sel", false);
  SignalId out = c.addSignal("out");
  Mux2 mux(c, a, b, sel, out, kD);
  c.run(1e-8);
  EXPECT_TRUE(c.value(out));   // sel=0 -> a
  c.setNow(sel, true);
  c.run(2e-8);
  EXPECT_FALSE(c.value(out));  // sel=1 -> b
  c.setNow(b, true);
  c.run(3e-8);
  EXPECT_TRUE(c.value(out));
}

TEST(Mux2, UnselectedInputQueuesNothingAndSelectRedrives) {
  Circuit c;
  SignalId a = c.addSignal("a");
  SignalId b = c.addSignal("b");
  SignalId sel = c.addSignal("sel");
  SignalId out = c.addSignal("out");
  Mux2 mux(c, a, b, sel, out, kD);
  c.run(1e-8);
  // sel = 0: toggling b queues nothing past its own transition.
  uint64_t before = c.processedEventCount();
  c.setNow(b, true);
  c.run(2e-8);
  EXPECT_EQ(c.processedEventCount(), before + 1);
  EXPECT_FALSE(c.value(out));
  // A select change re-drives the output from the newly selected input.
  before = c.processedEventCount();
  c.setNow(sel, true);
  c.run(3e-8);
  EXPECT_EQ(c.processedEventCount(), before + 2);
  EXPECT_TRUE(c.value(out));
  // sel = 1: toggling a queues nothing; toggling b re-drives.
  before = c.processedEventCount();
  c.setNow(a, true);
  c.run(4e-8);
  EXPECT_EQ(c.processedEventCount(), before + 1);
  c.setNow(b, false);
  c.run(5e-8);
  EXPECT_EQ(c.processedEventCount(), before + 3);
  EXPECT_FALSE(c.value(out));
}

TEST(DFlipFlop, CapturesOnRisingEdgeOnly) {
  Circuit c;
  SignalId clk = c.addSignal("clk");
  SignalId d = c.addSignal("d");
  SignalId q = c.addSignal("q");
  DFlipFlop ff(c, clk, d, q, kD);
  c.setNow(d, true);
  c.run(1e-7);
  EXPECT_FALSE(c.value(q));  // no clock yet
  c.scheduleSet(clk, 2e-7, true);
  c.run(3e-7);
  EXPECT_TRUE(c.value(q));
  // falling clock edge does nothing
  c.setNow(d, false);
  c.scheduleSet(clk, 4e-7, false);
  c.run(5e-7);
  EXPECT_TRUE(c.value(q));
}

TEST(DFlipFlop, AsyncResetClearsAndBlocksClocks) {
  Circuit c;
  SignalId clk = c.addSignal("clk");
  SignalId d = c.addSignal("d", true);
  SignalId q = c.addSignal("q");
  SignalId rst = c.addSignal("rst");
  DFlipFlop ff(c, clk, d, q, kD, rst, kD);
  c.scheduleSet(clk, 1e-7, true);
  c.run(2e-7);
  EXPECT_TRUE(c.value(q));
  c.setNow(rst, true);
  c.run(3e-7);
  EXPECT_FALSE(c.value(q));
  // clock while reset asserted is ignored
  c.scheduleSet(clk, 4e-7, false);
  c.scheduleSet(clk, 5e-7, true);
  c.run(6e-7);
  EXPECT_FALSE(c.value(q));
  // release reset; next edge captures again
  c.setNow(rst, false);
  c.scheduleSet(clk, 7e-7, false);
  c.scheduleSet(clk, 8e-7, true);
  c.run(9e-7);
  EXPECT_TRUE(c.value(q));
}

TEST(ClockSource, FrequencyAndStop) {
  Circuit c;
  SignalId clk = c.addSignal("clk");
  ClockSource src(c, clk, 1e-6);
  SourceDriver drive(c, src);
  EdgeRecorder rec(c, clk);
  c.run(10.5e-6);
  // Toggles every 0.5us from t=0: rising at 0, 1us, 2us, ... -> 11 by 10.5us
  EXPECT_EQ(rec.risingEdges().size(), 11u);
  EXPECT_NEAR(rec.risingEdges()[1] - rec.risingEdges()[0], 1e-6, 1e-15);
  src.stop();
  const size_t count = rec.risingEdges().size();
  c.run(20e-6);
  EXPECT_EQ(rec.risingEdges().size(), count);
}

TEST(DivideByN, RisingEdgeSpacingIsNPeriods) {
  Circuit c;
  SignalId clk = c.addSignal("clk");
  SignalId out = c.addSignal("out");
  ClockSource src(c, clk, 1e-6);
  SourceDriver drive(c, src);
  DivideByN div(c, clk, out, 5, kD);
  EdgeRecorder rec(c, out);
  c.run(40e-6);
  const auto& rises = rec.risingEdges();
  ASSERT_GE(rises.size(), 3u);
  EXPECT_NEAR(rises[1] - rises[0], 5e-6, 1e-12);
  EXPECT_NEAR(rises[2] - rises[1], 5e-6, 1e-12);
}

TEST(DivideByN, PassThroughForNOne) {
  Circuit c;
  SignalId clk = c.addSignal("clk");
  SignalId out = c.addSignal("out");
  ClockSource src(c, clk, 1e-6);
  SourceDriver drive(c, src);
  DivideByN div(c, clk, out, 1, kD);
  EdgeRecorder rec(c, out);
  c.run(5.2e-6);
  EXPECT_EQ(rec.risingEdges().size(), 6u);  // 0,1,2,3,4,5 us
}

TEST(GatedCounter, CountsOnlyWhileRunning) {
  Circuit c;
  SignalId clk = c.addSignal("clk");
  ClockSource src(c, clk, 1e-6);
  SourceDriver drive(c, src);
  GatedCounter counter(c, clk);
  c.run(5.5e-6);
  EXPECT_EQ(counter.count(), 0);  // never started
  counter.start();
  c.run(10.2e-6);  // rising edges at 6,7,8,9,10 us
  counter.stop();
  EXPECT_EQ(counter.count(), 5);
  c.run(20e-6);
  EXPECT_EQ(counter.count(), 5);  // frozen
  counter.start();                 // restart zeroes
  EXPECT_EQ(counter.count(), 0);
}

TEST(EdgeRecorder, TimestampsBothPolarities) {
  Circuit c;
  SignalId a = c.addSignal("a");
  EdgeRecorder rec(c, a);
  c.scheduleSet(a, 1.0, true);
  c.scheduleSet(a, 2.0, false);
  c.scheduleSet(a, 3.0, true);
  c.run(4.0);
  ASSERT_EQ(rec.risingEdges().size(), 2u);
  ASSERT_EQ(rec.fallingEdges().size(), 1u);
  EXPECT_DOUBLE_EQ(rec.risingEdges()[0], 1.0);
  EXPECT_DOUBLE_EQ(rec.fallingEdges()[0], 2.0);
  rec.clear();
  EXPECT_TRUE(rec.risingEdges().empty());
}

}  // namespace
}  // namespace pllbist::sim
