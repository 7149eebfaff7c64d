#include "bist/telemetry.hpp"

#include <array>

#include "bist/resilient_sweep.hpp"

namespace pllbist::bist {

namespace {

using Q = obs::RunReport::Quality;

/// The quality counts the registry and runCounters carry, in that order.
struct QualityCounter {
  int Q::*field;
  const char* metric;
};
constexpr std::array<QualityCounter, 7> kQualityCounters{{
    {&Q::attempts_total, "bist.resilient.attempts"},
    {&Q::relocks, "bist.resilient.relocks"},
    {&Q::relock_failures, "bist.resilient.relock_failures"},
    {&Q::ok, "bist.resilient.points_ok"},
    {&Q::retried, "bist.resilient.points_retried"},
    {&Q::degraded, "bist.resilient.points_degraded"},
    {&Q::dropped, "bist.resilient.points_dropped"},
}};

template <class Rows>
std::vector<obs::Counter> registerCounters(obs::MetricsRegistry& reg, const Rows& rows) {
  std::vector<obs::Counter> out;
  for (const auto& row : rows) out.push_back(reg.counter(row.metric));
  return out;
}

/// Handles into the global registry, registered once per process in this
/// order (snapshots list metrics in registration order); `quality` and
/// `bench` follow their tables' rows.
struct SweepTelemetry {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  std::vector<obs::Counter> quality = registerCounters(reg, kQualityCounters);
  obs::Counter stalls = reg.counter("bist.resilient.stalls");
  obs::Histogram point_wall =
      reg.histogram("bist.sweep.point_wall_s", obs::MetricsRegistry::latencyBucketsSeconds());
  std::vector<obs::Counter> bench = registerCounters(reg, BenchStats::kCounters);
};

SweepTelemetry& telemetry() {
  static SweepTelemetry* t = new SweepTelemetry();  // handles into the leaked global registry
  return *t;
}

}  // namespace

void publishRun(const ResilientResponse& run) {
  SweepTelemetry& t = telemetry();
  for (std::size_t i = 0; i < kQualityCounters.size(); ++i)
    t.quality[i].add(static_cast<uint64_t>(run.report.*kQualityCounters[i].field));
  if (run.status.kind() == Status::Kind::SimulationStall) t.stalls.increment();
  for (const MeasuredPoint& p : run.response.points)
    if (p.attempts > 0) t.point_wall.observe(p.wall_time_s);
  for (std::size_t i = 0; i < BenchStats::kCounters.size(); ++i) {
    const BenchStats::Counter& c = BenchStats::kCounters[i];
    if (run.bench.carries(c.block)) t.bench[i].add(run.bench.*c.field);
  }
}

std::vector<obs::CounterValue> runCounters(const ResilientResponse& run) {
  std::vector<obs::CounterValue> out;
  for (const QualityCounter& c : kQualityCounters)
    out.push_back({c.metric, static_cast<uint64_t>(run.report.*c.field)});
  for (const BenchStats::Counter& c : BenchStats::kCounters)
    if (run.bench.carries(c.block)) out.push_back({c.metric, run.bench.*c.field});
  return out;
}

}  // namespace pllbist::bist
