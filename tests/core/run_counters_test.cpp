// Every record of a run (the journal line, the RunReport, the campaign's
// metrics block and the registry) writes the run's counters from one
// declaration, BenchStats::kCounters plus the quality counts. A run whose
// twelve BenchStats counters are all distinct shows a counter written under
// the wrong key, dropped or read back into the wrong field.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bist/telemetry.hpp"
#include "core/journal.hpp"
#include "core/report_builder.hpp"
#include "obs/metrics.hpp"
#include "support/test_configs.hpp"

namespace pllbist::core {
namespace {

using Names = std::vector<std::pair<std::string, uint64_t>>;

Names namesAndValues(const std::vector<obs::CounterValue>& counters) {
  Names out;
  for (const obs::CounterValue& c : counters) out.emplace_back(c.name, c.value);
  return out;
}

/// One committed point whose twelve BenchStats counters read 1..12 and whose
/// quality counts are distinct too.
CheckpointRecord distinctCounters() {
  CheckpointRecord rec;
  rec.index = 0;
  bist::MeasuredPoint& p = rec.result.response.points.emplace_back();
  p.modulation_hz = 200.0;
  p.quality = bist::PointQuality::Degraded;
  p.attempts = 3;
  rec.result.report.count(p);
  rec.result.report.relocks = 2;
  rec.result.report.relock_failures = 1;
  bist::BenchStats& b = rec.result.bench;
  b.events_processed = 1;
  b.events_delivered = 2;
  b.events_dropped = 3;
  b.events_delayed = 4;
  b.events_swallowed = 5;
  b.loop_pfd_writes = 6;
  b.loop_vco_stops = 7;
  b.fault_benches = 8;
  b.faults_considered = 9;
  b.faults_dropped = 10;
  b.faults_delayed = 11;
  b.faults_glitches = 12;
  return rec;
}

CheckpointRecord roundTrip(const CheckpointRecord& rec) {
  CheckpointHeader header;
  header.tool = "run_counters_test";
  header.device = "fast";
  header.stimulus = "multi-tone-fsk";
  header.config_digest = 0x1234;
  header.points_total = 1;
  JournalLoadResult loaded;
  const Status s = parseJournal(JournalWriter::headerLine(header) + "\n" +
                                    JournalWriter::recordLine(rec) + "\n",
                                loaded);
  EXPECT_TRUE(s.ok()) << s.toString();
  EXPECT_EQ(loaded.records.size(), 1u);
  return loaded.records.empty() ? CheckpointRecord() : std::move(loaded.records.front());
}

obs::RunReport reportOf(const bist::ResilientResponse& run) {
  const pll::PllConfig cfg = pllbist::testing::fastTestConfig();
  const bist::SweepOptions sweep =
      pllbist::testing::fastSweepOptions(bist::StimulusKind::MultiToneFsk, 3);
  return buildRunReport("run_counters_test", "fast", cfg, sweep, 0, run, {});
}

TEST(RunCounters, EveryRecordCarriesEveryCounter) {
  const CheckpointRecord rec = distinctCounters();
  EXPECT_NE(JournalWriter::recordLine(rec).find(
                "\"kernel\":{\"processed\":1,\"delivered\":2,\"dropped\":3,\"delayed\":4,"
                "\"swallowed\":5},\"loop\":{\"pfd_writes\":6,\"vco_stops\":7},"
                "\"faults\":{\"benches\":8,\"considered\":9,\"dropped\":10,\"delayed\":11,"
                "\"glitches\":12}}"),
            std::string::npos)
      << JournalWriter::recordLine(rec);

  const bist::BenchStats got = roundTrip(rec).result.bench;
  EXPECT_EQ(got.events_processed, 1u);
  EXPECT_EQ(got.events_delivered, 2u);
  EXPECT_EQ(got.events_dropped, 3u);
  EXPECT_EQ(got.events_delayed, 4u);
  EXPECT_EQ(got.events_swallowed, 5u);
  EXPECT_EQ(got.loop_pfd_writes, 6u);
  EXPECT_EQ(got.loop_vco_stops, 7u);
  EXPECT_EQ(got.fault_benches, 8u);
  EXPECT_EQ(got.faults_considered, 9u);
  EXPECT_EQ(got.faults_dropped, 10u);
  EXPECT_EQ(got.faults_delayed, 11u);
  EXPECT_EQ(got.faults_glitches, 12u);

  // The RunReport leaves out faults.benches, as it always has.
  const obs::RunReport report = reportOf(rec.result);
  EXPECT_EQ(namesAndValues(report.kernel),
            (Names{{"processed", 1}, {"delivered", 2}, {"dropped", 3}, {"delayed", 4},
                   {"swallowed", 5}}));
  EXPECT_EQ(namesAndValues(report.loop), (Names{{"pfd_writes", 6}, {"vco_stops", 7}}));
  EXPECT_EQ(namesAndValues(report.faults),
            (Names{{"considered", 9}, {"dropped", 10}, {"delayed", 11}, {"glitches", 12}}));

  const Names want{{"bist.resilient.attempts", 3},
                   {"bist.resilient.relocks", 2},
                   {"bist.resilient.relock_failures", 1},
                   {"bist.resilient.points_ok", 0},
                   {"bist.resilient.points_retried", 0},
                   {"bist.resilient.points_degraded", 1},
                   {"bist.resilient.points_dropped", 0},
                   {"sim.kernel.events_processed", 1},
                   {"sim.kernel.events_delivered", 2},
                   {"sim.kernel.events_dropped", 3},
                   {"sim.kernel.events_delayed", 4},
                   {"sim.kernel.events_swallowed", 5},
                   {"pll.loop.pfd_writes", 6},
                   {"pll.loop.vco_stops", 7},
                   {"sim.faults.benches", 8},
                   {"sim.faults.considered", 9},
                   {"sim.faults.dropped", 10},
                   {"sim.faults.delayed", 11},
                   {"sim.faults.glitches", 12}};
  EXPECT_EQ(namesAndValues(bist::runCounters(rec.result)), want);

  // The registry holds the same counters in the same order, and publishing
  // the run alone tallies the same values.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.reset();
  bist::publishRun(rec.result);
  const obs::MetricsSnapshot snap = reg.snapshot();
  Names registered;
  for (const obs::CounterValue& c : snap.counters)
    if (std::any_of(want.begin(), want.end(), [&](const auto& w) { return w.first == c.name; }))
      registered.emplace_back(c.name, c.value);
  EXPECT_EQ(registered, want);
  reg.reset();
}

TEST(RunCounters, NoRecordCarriesAFaultBlockWithoutAFaultInjector) {
  CheckpointRecord rec = distinctCounters();
  rec.result.bench.fault_benches = 0;
  EXPECT_EQ(JournalWriter::recordLine(rec).find("faults"), std::string::npos);
  EXPECT_EQ(roundTrip(rec).result.bench.faults_considered, 0u);

  const obs::RunReport report = reportOf(rec.result);
  EXPECT_TRUE(report.faults.empty());
  EXPECT_EQ(report.toJson().find("\"faults\""), std::string::npos);

  const std::vector<obs::CounterValue> counters = bist::runCounters(rec.result);
  EXPECT_EQ(counters.size(), 14u);
  for (const obs::CounterValue& c : counters)
    EXPECT_NE(c.name.rfind("sim.faults.", 0), 0u) << c.name;
}

}  // namespace
}  // namespace pllbist::core
