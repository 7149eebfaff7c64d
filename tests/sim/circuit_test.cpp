#include "sim/circuit.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "sim/primitives.hpp"

namespace pllbist::sim {
namespace {

TEST(Circuit, SignalCreationAndInitialValue) {
  Circuit c;
  SignalId a = c.addSignal("a");
  SignalId b = c.addSignal("b", true);
  EXPECT_FALSE(c.value(a));
  EXPECT_TRUE(c.value(b));
  EXPECT_EQ(c.signalName(a), "a");
  EXPECT_EQ(c.signalCount(), 2);
}

TEST(Circuit, InvalidIdThrows) {
  Circuit c;
  EXPECT_THROW((void)c.value(0), std::invalid_argument);
  SignalId a = c.addSignal("a");
  EXPECT_THROW((void)c.value(a + 1), std::invalid_argument);
  EXPECT_THROW(c.scheduleSet(-1, 0.0, true), std::invalid_argument);
}

TEST(Circuit, ScheduledSetDeliversInTimeOrder) {
  Circuit c;
  SignalId a = c.addSignal("a");
  std::vector<double> times;
  c.onChange(a, [&](double now, bool) { times.push_back(now); });
  c.scheduleSet(a, 3.0, false);  // no-op at 3.0 (already false after toggle below? -> ordering)
  c.scheduleSet(a, 1.0, true);
  c.scheduleSet(a, 2.0, false);
  c.run(10.0);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
  EXPECT_DOUBLE_EQ(c.now(), 10.0);
}

TEST(Circuit, UnchangedValueSwallowed) {
  Circuit c;
  SignalId a = c.addSignal("a");
  int changes = 0;
  c.onChange(a, [&](double, bool) { ++changes; });
  c.scheduleSet(a, 1.0, true);
  c.scheduleSet(a, 2.0, true);  // swallowed
  c.run(5.0);
  EXPECT_EQ(changes, 1);
}

TEST(Circuit, SameTimeEventsKeepInsertionOrder) {
  Circuit c;
  std::vector<int> order;
  c.scheduleCallback(1.0, [&](double) { order.push_back(1); });
  c.scheduleCallback(1.0, [&](double) { order.push_back(2); });
  c.scheduleCallback(1.0, [&](double) { order.push_back(3); });
  c.run(2.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Circuit, EdgeCallbacksFilterPolarity) {
  Circuit c;
  SignalId a = c.addSignal("a");
  int rises = 0, falls = 0;
  c.onRisingEdge(a, [&](double) { ++rises; });
  c.onFallingEdge(a, [&](double) { ++falls; });
  c.scheduleSet(a, 1.0, true);
  c.scheduleSet(a, 2.0, false);
  c.scheduleSet(a, 3.0, true);
  c.run(5.0);
  EXPECT_EQ(rises, 2);
  EXPECT_EQ(falls, 1);
}

TEST(Circuit, CallbackMaySchedule) {
  Circuit c;
  SignalId a = c.addSignal("a");
  c.scheduleCallback(1.0, [&](double now) { c.scheduleSet(a, now + 0.5, true); });
  c.run(2.0);
  EXPECT_TRUE(c.value(a));
}

TEST(Circuit, SchedulingInThePastAsserts) {
  Circuit c;
  SignalId a = c.addSignal("a");
  c.run(5.0);
  EXPECT_THROW(c.scheduleSet(a, 1.0, true), AssertionError);
}

TEST(Circuit, RunStopsAtBoundaryAndResumes) {
  Circuit c;
  SignalId a = c.addSignal("a");
  c.scheduleSet(a, 1.0, true);
  c.scheduleSet(a, 3.0, false);
  c.run(2.0);
  EXPECT_TRUE(c.value(a));
  c.run(4.0);
  EXPECT_FALSE(c.value(a));
}

TEST(Circuit, EventExactlyAtBoundaryIsProcessed) {
  Circuit c;
  SignalId a = c.addSignal("a");
  c.scheduleSet(a, 2.0, true);
  c.run(2.0);
  EXPECT_TRUE(c.value(a));
}

TEST(Circuit, StepProcessesSingleEvent) {
  Circuit c;
  SignalId a = c.addSignal("a");
  c.scheduleSet(a, 1.0, true);
  c.scheduleSet(a, 2.0, false);
  EXPECT_TRUE(c.step());
  EXPECT_TRUE(c.value(a));
  EXPECT_TRUE(c.step());
  EXPECT_FALSE(c.value(a));
  EXPECT_FALSE(c.step());  // queue empty
}

TEST(Circuit, ProcessedEventCountGrows) {
  Circuit c;
  SignalId a = c.addSignal("a");
  c.scheduleSet(a, 1.0, true);
  c.scheduleSet(a, 2.0, false);
  c.run(3.0);
  EXPECT_EQ(c.processedEventCount(), 2u);
}

TEST(Circuit, SetNowDeliversAtCurrentTime) {
  Circuit c;
  SignalId a = c.addSignal("a");
  double seen = -1.0;
  c.onRisingEdge(a, [&](double now) { seen = now; });
  c.run(4.0);
  c.setNow(a, true);
  c.run(4.0);
  EXPECT_DOUBLE_EQ(seen, 4.0);
}

TEST(Circuit, ManyListenersAllFire) {
  Circuit c;
  SignalId a = c.addSignal("a");
  int count = 0;
  for (int i = 0; i < 10; ++i) c.onChange(a, [&](double, bool) { ++count; });
  c.scheduleSet(a, 1.0, true);
  c.run(2.0);
  EXPECT_EQ(count, 10);
}

TEST(Circuit, MixedSameTimeEventsKeepGlobalInsertionOrder) {
  // The tie-break is the global schedule order, not per-kind: signal sets
  // and callbacks interleaved at one timestamp deliver exactly as enqueued.
  Circuit c;
  SignalId a = c.addSignal("a");
  SignalId b = c.addSignal("b");
  std::vector<int> order;
  c.onChange(a, [&](double, bool) { order.push_back(1); });
  c.onChange(b, [&](double, bool) { order.push_back(3); });
  c.scheduleSet(a, 1.0, true);
  c.scheduleCallback(1.0, [&](double) { order.push_back(2); });
  c.scheduleSet(b, 1.0, true);
  c.scheduleCallback(1.0, [&](double) { order.push_back(4); });
  c.run(2.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Circuit, SetNowDeliversBeforeLaterScheduledSameTimeEvent) {
  Circuit c;
  SignalId a = c.addSignal("a");
  SignalId b = c.addSignal("b");
  std::vector<char> order;
  c.onChange(a, [&](double, bool) { order.push_back('a'); });
  c.onChange(b, [&](double, bool) { order.push_back('b'); });
  c.run(4.0);
  c.setNow(a, true);                // enqueued first at t = 4
  c.scheduleSet(b, 4.0, true);      // same timestamp, scheduled after
  c.run(4.0);
  EXPECT_EQ(order, (std::vector<char>{'a', 'b'}));
}

TEST(Circuit, CallbackRegisteringCallbackMidDeliveryIsSafe) {
  // A change callback may grow the listener list of the very signal being
  // delivered (the vector is iterated by index, so this must not invalidate
  // the loop). The newly registered listener joins the fan-out of the
  // in-flight transition.
  Circuit c;
  SignalId a = c.addSignal("a");
  int late_calls = 0;
  c.onChange(a, [&](double, bool) {
    c.onChange(a, [&](double, bool) { ++late_calls; });
  });
  c.scheduleSet(a, 1.0, true);
  c.run(2.0);
  EXPECT_EQ(late_calls, 1);
  c.scheduleSet(a, 3.0, false);
  c.run(4.0);
  // The original registers another listener each change; both the first and
  // second late listeners see the second transition.
  EXPECT_EQ(late_calls, 1 + 2);
}

TEST(Circuit, DelayedEventIsNotInterceptedAgain) {
  // Regression: a persistent Delay rule used to chase its own re-enqueued
  // event forever (livelock) and double-count fault statistics. The
  // re-enqueued event is marked intercepted and delivered unconditionally.
  Circuit c;
  SignalId a = c.addSignal("a");
  int interceptor_calls = 0;
  std::vector<double> edge_times;
  c.onChange(a, [&](double now, bool) { edge_times.push_back(now); });
  c.markFaultTarget(a);
  c.setEventInterceptor([&](SignalId, double, bool) {
    ++interceptor_calls;
    Circuit::InterceptVerdict v;
    v.action = Circuit::InterceptVerdict::Action::Delay;
    v.delay_s = 0.25;
    return v;
  });
  c.scheduleSet(a, 1.0, true);
  c.run(5.0);
  EXPECT_EQ(interceptor_calls, 1);  // once per scheduled edge, not per hop
  ASSERT_EQ(edge_times.size(), 1u);
  EXPECT_DOUBLE_EQ(edge_times[0], 1.25);
  EXPECT_EQ(c.delayedEventCount(), 1u);
  EXPECT_EQ(c.deliveredEventCount(), 1u);
}

TEST(Circuit, EventCountersSplitByOutcome) {
  Circuit c;
  SignalId a = c.addSignal("a");
  SignalId b = c.addSignal("b");
  c.markFaultTarget(a);
  c.markFaultTarget(b);
  c.setEventInterceptor([&](SignalId id, double, bool) {
    Circuit::InterceptVerdict v;
    if (id == b) v.action = Circuit::InterceptVerdict::Action::Drop;
    return v;
  });
  c.scheduleCallback(0.5, [](double) {});  // delivered (pure callback)
  c.scheduleSet(a, 1.0, true);             // delivered (transition applied)
  c.scheduleSet(a, 2.0, true);             // swallowed (no change)
  c.scheduleSet(b, 3.0, true);             // dropped by interceptor
  c.run(5.0);
  EXPECT_EQ(c.deliveredEventCount(), 2u);
  EXPECT_EQ(c.swallowedEventCount(), 1u);
  EXPECT_EQ(c.droppedEventCount(), 1u);
  EXPECT_EQ(c.delayedEventCount(), 0u);
  EXPECT_EQ(c.processedEventCount(),
            c.deliveredEventCount() + c.droppedEventCount() + c.delayedEventCount() +
                c.swallowedEventCount());
  EXPECT_FALSE(c.value(b));  // the dropped edge never happened
}

TEST(Circuit, DelayedThenRedeliveredEventCountedInBothBuckets) {
  Circuit c;
  SignalId a = c.addSignal("a");
  bool first = true;
  c.markFaultTarget(a);
  c.setEventInterceptor([&](SignalId, double, bool) {
    Circuit::InterceptVerdict v;
    if (first) {
      first = false;
      v.action = Circuit::InterceptVerdict::Action::Delay;
      v.delay_s = 0.5;
    }
    return v;
  });
  c.scheduleSet(a, 1.0, true);
  c.run(3.0);
  // One dequeue postponed it (delayed), a second dequeue applied it
  // (delivered): two processed events for one scheduled edge.
  EXPECT_EQ(c.delayedEventCount(), 1u);
  EXPECT_EQ(c.deliveredEventCount(), 1u);
  EXPECT_EQ(c.processedEventCount(), 2u);
}

/// Test handler: records (tag, time) and runs an optional hook; returns
/// `result` so the kernel's delivered/swallowed split can be checked.
struct RecordingHandler : Circuit::Handler {
  std::vector<std::pair<uint32_t, double>> seen;
  std::function<void(uint32_t, double)> hook;
  bool result = true;
  bool onEvent(uint32_t tag, double now) override {
    seen.emplace_back(tag, now);
    if (hook) hook(tag, now);
    return result;
  }
};

/// A handler with a fixed list of instants, all kernel-invisible state.
/// Running ahead, it handles in one event every instant strictly before
/// the horizon, as pll::CpPll does; otherwise one instant per event.
/// `at` runs at each instant and may schedule (queued events shorten the
/// horizon); `log` gets "h<instant>" at each instant.
struct InstantHandler : Circuit::Handler {
  Circuit& c;
  Circuit::HandlerId id;
  std::vector<double> instants;
  bool runs_ahead;
  std::vector<std::string>& log;
  std::function<void(double)> at;
  std::vector<double> horizons;  ///< the horizon seen at each instant
  std::size_t next = 0;

  InstantHandler(Circuit& circuit, std::vector<double> times, bool ahead,
                 std::vector<std::string>& out)
      : c(circuit), id(circuit.addHandler(*this)), instants(std::move(times)),
        runs_ahead(ahead), log(out) {
    c.scheduleEvent(instants.front(), id, 0);
  }
  bool onEvent(uint32_t, double now) override {
    for (;;) {
      log.push_back("h" + std::to_string(now));
      horizons.push_back(c.horizon());
      if (at) at(now);
      if (++next == instants.size()) return true;
      const double t = instants[next];
      if (!runs_ahead || !(t < c.horizon())) break;
      c.runAheadTo(t);
      now = t;
    }
    c.scheduleEvent(instants[next], id, 0);
    return true;
  }
};

TEST(CircuitRunAhead, NeverPassesTheFirstQueuedEventOrTheRunEnd) {
  Circuit c;
  const SignalId a = c.addSignal("a");
  std::vector<std::string> log;
  InstantHandler h(c, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, true, log);
  c.scheduleCallback(4.5, [&](double now) { log.push_back("closure" + std::to_string(now)); });
  // A write the handler schedules while it runs ahead is queued, and the
  // handler does not pass it.
  h.at = [&](double now) {
    if (now == 2.0) c.scheduleSet(a, 2.5, true);
  };
  c.onChange(a, [&](double now, bool) { log.push_back("a" + std::to_string(now)); });
  c.run(7.5);
  EXPECT_EQ(log, (std::vector<std::string>{"h1.000000", "h2.000000", "a2.500000", "h3.000000",
                                           "h4.000000", "closure4.500000", "h5.000000",
                                           "h6.000000", "h7.000000"}));
  for (std::size_t i = 0; i < h.horizons.size(); ++i)
    EXPECT_LT(h.instants[i], h.horizons[i]) << "instant " << h.instants[i];
  EXPECT_EQ(h.horizons.back(), 7.5);  // the run's end
  EXPECT_EQ(c.now(), 7.5);
  // Events: h@1 (1, 2), a@2.5, h@3 (3, 4), the closure, h@5 (5, 6, 7).
  EXPECT_EQ(c.processedEventCount(), 5u);
  EXPECT_EQ(c.horizon(), 8.0);  // outside a run: the handler's pending event
}

TEST(CircuitRunAhead, AnInstantThatTiesTheHorizonRunsAfterTheTiedEvent) {
  // The order one event per instant gives, and the run-ahead order, with
  // ties against an earlier-queued closure and a signal write, and an
  // instant exactly at the run's end.
  auto order = [](bool runs_ahead, uint64_t* processed) {
    Circuit c;
    const SignalId a = c.addSignal("a");
    std::vector<std::string> log;
    c.scheduleSet(a, 3.0, true);
    InstantHandler h(c, {1, 2, 3, 4, 5, 6}, runs_ahead, log);
    c.scheduleCallback(5.0, [&](double now) { log.push_back("closure" + std::to_string(now)); });
    c.onChange(a, [&](double now, bool) { log.push_back("a" + std::to_string(now)); });
    c.run(4.0);
    log.push_back("end");
    c.run(6.0);
    *processed = c.processedEventCount();
    return log;
  };
  uint64_t per_instant = 0, ahead = 0;
  const std::vector<std::string> want = order(false, &per_instant);
  EXPECT_EQ(want, (std::vector<std::string>{"h1.000000", "h2.000000", "a3.000000", "h3.000000",
                                            "h4.000000", "end", "closure5.000000", "h5.000000",
                                            "h6.000000"}));
  EXPECT_EQ(order(true, &ahead), want);
  EXPECT_EQ(per_instant, 8u);
  EXPECT_EQ(ahead, 7u);  // h@1 covers 1 and 2; 3, 4 and 6 tie an event or a run's end
}

TEST(CircuitRunAhead, StepStopsBeforeItsLimit) {
  Circuit c;
  std::vector<std::string> log;
  InstantHandler h(c, {1, 2, 3, 4, 5, 6, 7, 8}, true, log);
  ASSERT_TRUE(c.step(4.5));
  EXPECT_EQ(c.now(), 4.0);
  EXPECT_EQ(log.size(), 4u);
  // The instant past the limit goes through the queue, one step of its own,
  // as a step per instant would have reached it.
  ASSERT_TRUE(c.step(4.5));
  EXPECT_EQ(c.now(), 5.0);
  // An instant exactly at the limit is not run ahead to either.
  ASSERT_TRUE(c.step(7.0));
  EXPECT_EQ(c.now(), 6.0);
  // Without a limit the handler, alone in the queue, runs to its end.
  ASSERT_TRUE(c.step());
  EXPECT_EQ(c.now(), 8.0);
  EXPECT_EQ(log.size(), 8u);
  EXPECT_FALSE(c.step());
  EXPECT_EQ(c.processedEventCount(), 4u);
}

TEST(CircuitRunAhead, RunningAheadToOrPastTheHorizonAsserts) {
  Circuit c;
  struct Eager : Circuit::Handler {
    Circuit* c = nullptr;
    double to = 0.0;
    bool onEvent(uint32_t, double) override {
      c->runAheadTo(to);
      return true;
    }
  } eager;
  eager.c = &c;
  const Circuit::HandlerId id = c.addHandler(eager);
  c.scheduleEvent(1.0, id, 0);
  c.scheduleCallback(2.0, [](double) {});
  eager.to = 2.0;  // ties the queued closure
  EXPECT_THROW(c.run(3.0), AssertionError);
  Circuit d;
  eager.c = &d;
  d.scheduleEvent(1.0, d.addHandler(eager), 0);
  eager.to = 1.5;  // the run's end
  EXPECT_THROW(d.run(1.5), AssertionError);
}

TEST(Circuit, HandlerReceivesTagAtItsTime) {
  Circuit c;
  RecordingHandler h;
  const Circuit::HandlerId id = c.addHandler(h);
  c.scheduleEvent(2.0, id, 7u);
  c.scheduleEvent(1.0, id, 0xffffffffu);
  c.run(3.0);
  using Seen = std::vector<std::pair<uint32_t, double>>;
  EXPECT_EQ(h.seen, (Seen{{0xffffffffu, 1.0}, {7u, 2.0}}));
  EXPECT_EQ(c.deliveredEventCount(), 2u);
}

TEST(Circuit, HandlerReturningFalseCountsAsSwallowed) {
  Circuit c;
  RecordingHandler h;
  h.result = false;  // a superseded event: dequeued, no effect
  const Circuit::HandlerId id = c.addHandler(h);
  c.scheduleEvent(1.0, id, 1u);
  c.scheduleEvent(2.0, id, 2u);
  c.scheduleCallback(3.0, [](double) {});
  c.run(4.0);
  EXPECT_EQ(h.seen.size(), 2u);
  EXPECT_EQ(c.swallowedEventCount(), 2u);
  EXPECT_EQ(c.deliveredEventCount(), 1u);
  EXPECT_EQ(c.processedEventCount(),
            c.deliveredEventCount() + c.droppedEventCount() + c.delayedEventCount() +
                c.swallowedEventCount());
}

TEST(Circuit, HandlerClosureAndSignalEventsKeepGlobalInsertionOrder) {
  Circuit c;
  SignalId a = c.addSignal("a");
  RecordingHandler h;
  const Circuit::HandlerId id = c.addHandler(h);
  std::vector<int> order;
  h.hook = [&](uint32_t tag, double) { order.push_back(static_cast<int>(tag)); };
  c.onChange(a, [&](double, bool) { order.push_back(3); });
  c.scheduleEvent(1.0, id, 1u);
  c.scheduleCallback(1.0, [&](double) { order.push_back(2); });
  c.scheduleSet(a, 1.0, true);
  c.scheduleEvent(1.0, id, 4u);
  c.scheduleCallback(1.0, [&](double) { order.push_back(5); });
  c.run(2.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Circuit, HandlerEventsBypassTheInterceptor) {
  Circuit c;
  SignalId a = c.addSignal("a");
  RecordingHandler h;
  const Circuit::HandlerId id = c.addHandler(h);
  int interceptor_calls = 0;
  c.markFaultTarget(a);
  c.setEventInterceptor([&](SignalId, double, bool) {
    ++interceptor_calls;
    Circuit::InterceptVerdict v;
    v.action = Circuit::InterceptVerdict::Action::Drop;
    return v;
  });
  c.scheduleEvent(1.0, id, 0u);
  c.scheduleCallback(1.5, [](double) {});
  c.scheduleSet(a, 2.0, true);
  c.run(3.0);
  EXPECT_EQ(h.seen.size(), 1u);
  EXPECT_EQ(interceptor_calls, 1);  // only the signal transition
  EXPECT_EQ(c.droppedEventCount(), 1u);
  EXPECT_EQ(c.deliveredEventCount(), 2u);
}

TEST(Circuit, ClosureSchedulingManyClosuresWhileRunningIsSafe) {
  // The running closure grows (and reallocates) the slab it was stored in;
  // the kernel moved it out first, so its captures stay valid throughout.
  Circuit c;
  int fired = 0;
  std::vector<int> payload(64, 1);
  c.scheduleCallback(1.0, [&c, &fired, payload](double now) {
    for (int i = 0; i < 1000; ++i)
      c.scheduleCallback(now + 1.0 + i * 1e-3, [&fired, payload](double) { fired += payload[0]; });
    fired += payload[63];
  });
  c.run(10.0);
  EXPECT_EQ(fired, 1001);
  EXPECT_EQ(c.deliveredEventCount(), 1001u);
  EXPECT_LE(c.closureSlotCount(), 1001u);
}

TEST(Circuit, SelfReschedulingClosureKeepsTheSlabBounded) {
  Circuit c;
  int remaining = 100000;
  std::function<void(double)> tick = [&](double now) {
    if (--remaining > 0) c.scheduleCallback(now + 1e-6, tick);
  };
  c.scheduleCallback(0.0, tick);
  c.run(1.0);
  EXPECT_EQ(remaining, 0);
  EXPECT_EQ(c.deliveredEventCount(), 100000u);
  EXPECT_LE(c.closureSlotCount(), 2u);
}

/// A clock into a divide-by-3, with every transition of the divided net
/// recorded: built twice the same way for the fork tests.
struct ForkableDesign {
  Circuit c;
  SignalId clk = c.addSignal("clk");
  SignalId div = c.addSignal("div");
  ClockSource clock{c, clk, 1e-4};
  SourceDriver drive{c, clock};
  DivideByN divider{c, clk, div, 3, 1e-6};
  std::vector<std::pair<double, bool>> edges;
  ForkableDesign() {
    c.onChange(div, [this](double now, bool v) { edges.emplace_back(now, v); });
  }
  void copyStateFrom(const ForkableDesign& source) {
    c.copyStateFrom(source.c);
    clock.copyStateFrom(source.clock);
    divider.copyStateFrom(source.divider);
  }
};

TEST(Circuit, CopyStateFromContinuesTheSourceHistory) {
  ForkableDesign source;
  source.c.run(1.05e-3);  // mid-count: the divider holds a partial count
  ForkableDesign fork;
  fork.copyStateFrom(source);
  EXPECT_EQ(fork.c.now(), source.c.now());
  EXPECT_EQ(fork.c.value(fork.div), source.c.value(source.div));
  EXPECT_EQ(fork.c.processedEventCount(), source.c.processedEventCount());
  source.edges.clear();
  source.c.run(3e-3);
  fork.c.run(3e-3);
  EXPECT_FALSE(fork.edges.empty());
  EXPECT_EQ(fork.edges, source.edges);
  EXPECT_EQ(fork.c.processedEventCount(), source.c.processedEventCount());
  EXPECT_EQ(fork.c.deliveredEventCount(), source.c.deliveredEventCount());
  EXPECT_EQ(fork.c.swallowedEventCount(), source.c.swallowedEventCount());
}

TEST(Circuit, CopyStateFromKeepsTheInsertionOrder) {
  // Same-time events deliver in insertion order; an event scheduled after
  // the fork must still come after one queued before it.
  ForkableDesign source;
  source.c.run(1e-3);
  source.c.scheduleSet(source.div, 5e-3, true);
  ForkableDesign fork;
  fork.copyStateFrom(source);
  for (ForkableDesign* d : {&source, &fork}) {
    d->c.scheduleSet(d->div, 5e-3, false);
    d->c.run(5e-3);
  }
  EXPECT_FALSE(source.c.value(source.div));
  EXPECT_FALSE(fork.c.value(fork.div));
}

TEST(Circuit, RescheduleEventMovesThePendingEventWithoutASwallow) {
  Circuit c;
  RecordingHandler h;
  RecordingHandler other;
  const Circuit::HandlerId id = c.addHandler(h);
  const Circuit::HandlerId other_id = c.addHandler(other);
  for (int k = 1; k <= 6; ++k) c.scheduleEvent(k * 1.0, other_id, static_cast<uint32_t>(k));
  c.scheduleEvent(5.5, id, 1u);
  c.rescheduleEvent(2.5, id, 2u);  // earlier: sifts up past its parents
  c.run(3.0);
  c.scheduleEvent(7.0, id, 9u);
  c.rescheduleEvent(3.0, id, 0u);  // to the current time
  c.run(10.0);
  ASSERT_EQ(h.seen.size(), 2u);
  EXPECT_EQ(h.seen[0], std::make_pair(2u, 2.5));
  EXPECT_EQ(h.seen[1], std::make_pair(0u, 3.0));
  c.scheduleEvent(12.0, id, 3u);
  c.scheduleEvent(11.0, other_id, 7u);
  c.rescheduleEvent(14.0, id, 4u);  // later: sifts down
  c.run(20.0);
  EXPECT_EQ(h.seen.back(), std::make_pair(4u, 14.0));
  EXPECT_EQ(other.seen.back(), std::make_pair(7u, 11.0));
  EXPECT_EQ(c.swallowedEventCount(), 0u);
  EXPECT_EQ(c.processedEventCount(), 6u + 3u + 1u);
  EXPECT_THROW(c.rescheduleEvent(21.0, id, 0u), AssertionError);  // nothing pending
}

TEST(Circuit, CopyStateFromRejectsPendingClosuresAndInterceptors) {
  ForkableDesign source;
  ForkableDesign fork;
  source.c.scheduleCallback(1e-3, [](double) {});
  EXPECT_THROW(fork.c.copyStateFrom(source.c), std::logic_error);
  source.c.run(2e-3);  // the closure ran: nothing pending any more
  EXPECT_NO_THROW(fork.c.copyStateFrom(source.c));
  source.c.setEventInterceptor([](SignalId, double, bool) { return Circuit::InterceptVerdict{}; });
  EXPECT_THROW(fork.c.copyStateFrom(source.c), std::logic_error);
}

TEST(Circuit, CopyStateFromRejectsATargetWithAnInterceptor) {
  // The source's fault-target marks would replace the ones the target's
  // interceptor was installed with.
  ForkableDesign source;
  ForkableDesign fork;
  fork.c.markFaultTarget(fork.div);
  fork.c.setEventInterceptor([](SignalId, double, bool) { return Circuit::InterceptVerdict{}; });
  EXPECT_THROW(fork.c.copyStateFrom(source.c), std::logic_error);
  fork.c.setEventInterceptor(nullptr);
  EXPECT_NO_THROW(fork.c.copyStateFrom(source.c));
}

TEST(Circuit, InterceptorSeesOnlyMarkedNets) {
  Circuit c;
  SignalId a = c.addSignal("a");
  SignalId b = c.addSignal("b");
  std::vector<SignalId> seen;
  c.setEventInterceptor([&](SignalId id, double, bool) {
    seen.push_back(id);
    Circuit::InterceptVerdict v;
    v.action = Circuit::InterceptVerdict::Action::Drop;
    return v;
  });
  c.markFaultTarget(b);
  EXPECT_FALSE(c.interceptionPending(a));
  EXPECT_TRUE(c.interceptionPending(b));
  c.scheduleSet(a, 1.0, true);
  c.scheduleSet(b, 2.0, true);
  c.run(3.0);
  EXPECT_EQ(seen, std::vector<SignalId>{b});
  EXPECT_TRUE(c.value(a));
  EXPECT_FALSE(c.value(b));
  EXPECT_EQ(c.droppedEventCount(), 1u);
}

TEST(Circuit, CopyStateFromRequiresTheSameStructure) {
  Circuit a;
  a.addSignal("x");
  Circuit b;
  b.addSignal("y");
  EXPECT_THROW(b.copyStateFrom(a), std::logic_error);  // names differ
  b.addSignal("x");
  EXPECT_THROW(b.copyStateFrom(a), std::logic_error);  // counts differ
  Circuit c;
  c.addSignal("x");
  RecordingHandler h;
  c.addHandler(h);
  EXPECT_THROW(c.copyStateFrom(a), std::logic_error);  // handlers differ
}

}  // namespace
}  // namespace pllbist::sim
