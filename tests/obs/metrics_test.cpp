#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

namespace pllbist::obs {
namespace {

TEST(Metrics, CounterAccumulates) {
  MetricsRegistry reg;
  Counter c = reg.counter("test.counter");
  c.increment();
  c.add(41);
  const MetricsSnapshot snap = reg.snapshot();
  const CounterValue* v = snap.findCounter("test.counter");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->value, 42u);
}

TEST(Metrics, DefaultConstructedHandlesAreNoops) {
  Counter c;
  Gauge g;
  Histogram h;
  c.increment();
  g.set(1.0);
  h.observe(1.0);  // must not crash
}

TEST(Metrics, ReRegistrationReturnsSameMetric) {
  MetricsRegistry reg;
  Counter a = reg.counter("test.same");
  Counter b = reg.counter("test.same");
  a.increment();
  b.increment();
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.findCounter("test.same")->value, 2u);
  // Kind clash on an existing name is a programming error.
  EXPECT_THROW((void)reg.gauge("test.same"), std::invalid_argument);
}

TEST(Metrics, GaugeLastWriterWins) {
  MetricsRegistry reg;
  Gauge g = reg.gauge("test.gauge");
  g.set(1.5);
  g.set(-3.25);
  const MetricsSnapshot snap = reg.snapshot();
  const GaugeValue* v = snap.findGauge("test.gauge");
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->ever_set);
  EXPECT_DOUBLE_EQ(v->value, -3.25);
}

TEST(Metrics, UnsetGaugeIsMarked) {
  MetricsRegistry reg;
  (void)reg.gauge("test.unset");
  const MetricsSnapshot snap = reg.snapshot();
  const GaugeValue* v = snap.findGauge("test.unset");
  ASSERT_NE(v, nullptr);
  EXPECT_FALSE(v->ever_set);
}

TEST(Metrics, HistogramBucketsAndStats) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("test.hist", {1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0
  h.observe(5.0);    // bucket 1
  h.observe(50.0);   // bucket 2
  h.observe(500.0);  // overflow
  const MetricsSnapshot snap = reg.snapshot();
  const HistogramValue* v = snap.findHistogram("test.hist");
  ASSERT_NE(v, nullptr);
  ASSERT_EQ(v->bounds.size(), 3u);
  ASSERT_EQ(v->buckets.size(), 4u);
  EXPECT_EQ(v->buckets[0], 1u);
  EXPECT_EQ(v->buckets[1], 1u);
  EXPECT_EQ(v->buckets[2], 1u);
  EXPECT_EQ(v->buckets[3], 1u);
  EXPECT_EQ(v->count, 4u);
  EXPECT_DOUBLE_EQ(v->sum, 555.5);
  EXPECT_DOUBLE_EQ(v->min, 0.5);
  EXPECT_DOUBLE_EQ(v->max, 500.0);
}

TEST(Metrics, HistogramQuantiles) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("test.q", MetricsRegistry::latencyBucketsSeconds());
  for (int i = 0; i < 100; ++i) h.observe(0.015);  // all in the (0.01, 0.02] bucket
  const MetricsSnapshot snap = reg.snapshot();
  const HistogramValue* v = snap.findHistogram("test.q");
  ASSERT_NE(v, nullptr);
  const double p50 = v->quantile(0.5);
  EXPECT_GE(p50, 0.01);
  EXPECT_LE(p50, 0.02);
  EXPECT_DOUBLE_EQ(v->quantile(1.0), 0.015);  // exact: clamped to observed max
  EXPECT_TRUE(std::isnan(HistogramValue{}.quantile(0.5)));
}

TEST(Metrics, HistogramReboundMismatchThrows) {
  MetricsRegistry reg;
  (void)reg.histogram("test.bounds", {1.0, 2.0});
  EXPECT_THROW((void)reg.histogram("test.bounds", {1.0, 3.0}), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("test.unsorted", {2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("test.huge", std::vector<double>(kMaxHistogramBuckets + 1, 0.0)),
               std::invalid_argument);
}

TEST(Metrics, MultiThreadShardsMerge) {
  MetricsRegistry reg;
  Counter c = reg.counter("test.mt.counter");
  Histogram h = reg.histogram("test.mt.hist", {10.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.increment();
        h.observe(static_cast<double>(t));
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.findCounter("test.mt.counter")->value,
            static_cast<uint64_t>(kThreads) * kPerThread);
  const HistogramValue* v = snap.findHistogram("test.mt.hist");
  EXPECT_EQ(v->count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(v->min, 0.0);
  EXPECT_DOUBLE_EQ(v->max, kThreads - 1.0);
}

TEST(Metrics, ResetZeroesButKeepsDefinitions) {
  MetricsRegistry reg;
  Counter c = reg.counter("test.reset");
  Histogram h = reg.histogram("test.reset.h", {1.0});
  c.add(7);
  h.observe(0.5);
  reg.reset();
  MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.findCounter("test.reset")->value, 0u);
  EXPECT_EQ(snap.findHistogram("test.reset.h")->count, 0u);
  // Handles stay live after reset.
  c.increment();
  const MetricsSnapshot after = reg.snapshot();
  EXPECT_EQ(after.findCounter("test.reset")->value, 1u);
}

TEST(Metrics, SnapshotPreservesRegistrationOrder) {
  MetricsRegistry reg;
  (void)reg.counter("z.last");
  (void)reg.counter("a.first");
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "z.last");
  EXPECT_EQ(snap.counters[1].name, "a.first");
}

}  // namespace
}  // namespace pllbist::obs
