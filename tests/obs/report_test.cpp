#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "bist/parallel_sweep.hpp"
#include "core/report_builder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "pll/config.hpp"

namespace pllbist {
namespace {

using obs::JsonValue;

// One small real sweep -> RunReport JSON, with the global registry scoped
// to this run (exactly what sweep_cli does).
std::string runAndReport(int jobs, int points = 3) {
  obs::MetricsRegistry::global().reset();
  const pll::PllConfig cfg = pll::scaledTestConfig();
  const bist::SweepOptions sweep =
      bist::quickSweepOptions(cfg, bist::StimulusKind::MultiToneFsk, points);
  bist::ParallelSweepOptions popt;
  popt.jobs = jobs;
  bist::ParallelSweep engine(cfg, sweep, popt);
  const bist::ResilientResponse result = engine.run();
  return core::buildRunReport("report_test", "fast", cfg, sweep, jobs, result,
                              obs::MetricsRegistry::global().snapshot())
      .toJson();
}

TEST(RunReport, RealSweepReportValidates) {
  const std::string text = runAndReport(/*jobs=*/2);
  EXPECT_TRUE(obs::validateRunReportText(text).ok()) << text;

  JsonValue doc;
  ASSERT_TRUE(obs::parseJson(text, doc).ok());
  EXPECT_EQ(doc.find("schema")->string, obs::kRunReportSchema);
  EXPECT_EQ(doc.find("points")->array.size(), 3u);
  // The run's kernel counters made it into the report.
  EXPECT_GT(doc.find("kernel")->find("processed")->number, 0.0);
  // No fault injector was attached, so the faults section is absent.
  EXPECT_EQ(doc.find("faults"), nullptr);
}

// Satellite 3: two identical seeded runs must serialise to identical JSON
// once the documented timing fields are stripped.
TEST(RunReport, DeterministicModuloTimingFields) {
  const std::string a = runAndReport(/*jobs=*/2);
  const std::string b = runAndReport(/*jobs=*/2);

  JsonValue da, db;
  ASSERT_TRUE(obs::parseJson(a, da).ok());
  ASSERT_TRUE(obs::parseJson(b, db).ok());
  obs::stripTimingFields(da);
  obs::stripTimingFields(db);
  EXPECT_EQ(da.dump(), db.dump());
}

// The jobs-count determinism contract extends to the report: measurement
// fields are identical for any worker count (only timing differs).
TEST(RunReport, JobsCountInvariantModuloTimingFields) {
  const std::string serial = runAndReport(/*jobs=*/1);
  const std::string farmed = runAndReport(/*jobs=*/3);

  JsonValue ds, df;
  ASSERT_TRUE(obs::parseJson(serial, ds).ok());
  ASSERT_TRUE(obs::parseJson(farmed, df).ok());
  obs::stripTimingFields(ds);
  obs::stripTimingFields(df);
  // jobs is an execution parameter, not a measurement: normalise it.
  ds.find("config")->find("jobs")->number = 0;
  df.find("config")->find("jobs")->number = 0;
  // The farm jobs gauge records the worker count; normalise it too. Every
  // counter and histogram must still agree.
  for (JsonValue* doc : {&ds, &df}) {
    bool saw_jobs_gauge = false;
    for (JsonValue& g : doc->find("metrics")->find("gauges")->array)
      if (g.find("name")->string == "bist.farm.jobs") {
        g.find("value")->number = 0;
        saw_jobs_gauge = true;
      }
    EXPECT_TRUE(saw_jobs_gauge);
  }
  EXPECT_EQ(ds.dump(), df.dump());
}

// The kernel block comes from the run's own bench statistics, not from the
// process-wide registry, so an earlier sweep in the same process (and no
// registry reset in between) does not leak into a later report.
TEST(RunReport, DescribesOnlyItsOwnSweep) {
  const pll::PllConfig cfg = pll::scaledTestConfig();
  auto sweepOnce = [&](int points) {
    const bist::SweepOptions sweep =
        bist::quickSweepOptions(cfg, bist::StimulusKind::MultiToneFsk, points);
    const bist::ResilientResponse result = bist::ParallelSweep(cfg, sweep, {}).run();
    return std::pair{result, core::buildRunReport("report_test", "fast", cfg, sweep, 0, result,
                                                  obs::MetricsRegistry::global().snapshot())};
  };
  const auto first = sweepOnce(3);
  const auto [result, report] = sweepOnce(2);
  ASSERT_GT(first.first.bench.events_processed, 0u);
  const bist::BenchStats& b = result.bench;
  ASSERT_EQ(report.kernel.size(), 5u);
  EXPECT_EQ(report.kernel[0].value, b.events_processed);
  EXPECT_EQ(report.kernel[1].value, b.events_delivered);
  EXPECT_EQ(report.kernel[2].value, b.events_dropped);
  EXPECT_EQ(report.kernel[3].value, b.events_delayed);
  EXPECT_EQ(report.kernel[4].value, b.events_swallowed);
  EXPECT_TRUE(report.faults.empty());
}

TEST(RunReport, StripTimingFieldsRemovesExactlyTheDocumentedPaths) {
  const std::string text = runAndReport(/*jobs=*/1);
  JsonValue doc;
  ASSERT_TRUE(obs::parseJson(text, doc).ok());

  // Before: timing fields are present.
  ASSERT_NE(doc.find("quality")->find("wall_time_s"), nullptr);
  ASSERT_NE(doc.find("points")->array[0].find("wall_time_s"), nullptr);
  bool saw_wall_metric = false;
  for (const JsonValue& h : doc.find("metrics")->find("histograms")->array)
    if (h.find("name")->string == "bist.sweep.point_wall_s") saw_wall_metric = true;
  ASSERT_TRUE(saw_wall_metric);

  obs::stripTimingFields(doc);
  EXPECT_EQ(doc.find("quality")->find("wall_time_s"), nullptr);
  for (const JsonValue& p : doc.find("points")->array)
    EXPECT_EQ(p.find("wall_time_s"), nullptr);
  for (const JsonValue& h : doc.find("metrics")->find("histograms")->array)
    EXPECT_NE(h.find("name")->string, "bist.sweep.point_wall_s");
  // Non-timing content survives.
  EXPECT_NE(doc.find("quality")->find("sim_time_s"), nullptr);
  EXPECT_NE(doc.find("metrics")->find("counters"), nullptr);
  // The stripped document still validates (timing fields are optional).
  EXPECT_TRUE(obs::validateRunReportJson(doc).ok());
}

TEST(RunReport, TimingFieldListIsTheDocumentedContract) {
  const std::vector<std::string>& fields = obs::runReportTimingFields();
  EXPECT_NE(std::find(fields.begin(), fields.end(), "quality.wall_time_s"), fields.end());
  EXPECT_NE(std::find(fields.begin(), fields.end(), "points[].wall_time_s"), fields.end());
}

TEST(RunReport, ConfigDigestSeparatesDevices) {
  const bist::SweepOptions sweep =
      bist::quickSweepOptions(pll::scaledTestConfig(), bist::StimulusKind::MultiToneFsk, 3);
  const std::string a = core::canonicalConfigString(pll::scaledTestConfig(), sweep);
  const std::string b = core::canonicalConfigString(pll::scaledTestConfig(150.0), sweep);
  EXPECT_EQ(obs::fnv1a64(a), obs::fnv1a64(core::canonicalConfigString(pll::scaledTestConfig(), sweep)));
  EXPECT_NE(obs::fnv1a64(a), obs::fnv1a64(b));
}

TEST(RunReport, ValidatorRejectsBrokenDocuments) {
  const std::string text = runAndReport(/*jobs=*/1);
  JsonValue doc;

  ASSERT_TRUE(obs::parseJson(text, doc).ok());
  doc.find("schema")->string = "other/1";
  EXPECT_FALSE(obs::validateRunReportJson(doc).ok());

  ASSERT_TRUE(obs::parseJson(text, doc).ok());
  doc.erase("kernel");
  EXPECT_FALSE(obs::validateRunReportJson(doc).ok());

  ASSERT_TRUE(obs::parseJson(text, doc).ok());
  doc.find("quality")->find("points_total")->number += 1;
  EXPECT_FALSE(obs::validateRunReportJson(doc).ok());

  ASSERT_TRUE(obs::parseJson(text, doc).ok());
  doc.find("config")->find("digest")->string = "not-hex";
  EXPECT_FALSE(obs::validateRunReportJson(doc).ok());
}

}  // namespace
}  // namespace pllbist
