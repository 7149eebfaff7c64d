#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "obs/metrics.hpp"

namespace pllbist::obs {

class JsonValue;
class JsonWriter;

/// Schema identifier written into (and required from) every report.
inline constexpr const char* kRunReportSchema = "pllbist.run_report/1";

/// Machine-readable record of how one run behaved: configuration digest,
/// per-point quality + timing, sweep-level quality accounting, fault and
/// kernel statistics, and the full metrics snapshot. This is the
/// consolidated artifact `sweep_cli --report out.json` emits; the obs layer
/// keeps it free of bist/pll types so any layer can assemble one (see
/// core::buildRunReport for the sweep adapter).
struct RunReport {
  /// One measured frequency point.
  struct Point {
    double fm_hz = 0.0;
    double deviation_hz = 0.0;
    double phase_deg = 0.0;
    std::string quality;  ///< "ok" / "retried" / "degraded" / "dropped"
    int attempts = 0;
    std::string status;       ///< Status kind name ("ok" when measured)
    std::string status_context;  ///< human-readable failure detail, may be empty
    double wall_time_s = 0.0;    ///< host time spent on this point (timing field)
  };

  /// Sweep-level quality accounting. bist::SweepQualityReport derives
  /// from it, so a run's counts reach the report without a copy per field.
  struct Quality {
    int points_total = 0;
    int ok = 0;        ///< clean on the first attempt
    int retried = 0;   ///< second attempt succeeded, no relock needed
    int degraded = 0;  ///< measured after a relock or >= 2 retries
    int dropped = 0;   ///< retry budget exhausted / relock failed
    int attempts_total = 0;   ///< measurement attempts consumed sweep-wide
    int relocks = 0;          ///< lock losses recovered by relock-and-resume
    int relock_failures = 0;  ///< relock waits that expired (point abandoned)
    double sim_time_s = 0.0;  ///< simulated time consumed by the whole sweep
    double wall_time_s = 0.0; ///< host wall-clock time of the run (timing field)
  };

  std::string tool;      ///< producing binary, e.g. "sweep_cli"
  std::string device;    ///< preset name ("reference", "fast", ...)
  std::string stimulus;  ///< stimulus kind name
  /// FNV-1a digest over the canonical textual form of the device
  /// configuration; two reports with equal digests measured the same
  /// device. Serialised as a hex string.
  uint64_t config_digest = 0;
  int jobs = -1;  ///< -1 = serial shared-bench engine, >= 0 = point farm
  std::string sweep_status = "ok";  ///< fatal sweep Status kind name

  Quality quality;
  std::vector<Point> points;
  /// The run's fault-injector counters as (key, value), in write order;
  /// empty (and not written) when no fault injector was attached.
  /// core::buildRunReport fills both lists from bist::BenchStats::kCounters.
  std::vector<CounterValue> faults;
  /// The run's event-kernel counters as (key, value), in write order.
  std::vector<CounterValue> kernel;
  /// The loop's work units as (key, value), in write order: its instants,
  /// which kernel events no longer count one by one.
  std::vector<CounterValue> loop;
  MetricsSnapshot metrics;

  /// Serialise as schema-conformant JSON. Field order is fixed, numbers use
  /// shortest-round-trip formatting: identical reports serialise to
  /// byte-identical documents.
  void writeJson(std::ostream& os) const;
  [[nodiscard]] std::string toJson() const;
};

/// Validate a parsed document against the RunReport schema: required keys
/// (the kernel and loop blocks among them), value types, quality-counter
/// consistency (ok+retried+degraded+dropped == points_total, points array
/// length matches), histogram bucket/bound arity. Returns InvalidArgument
/// naming the first violated rule.
[[nodiscard]] Status validateRunReportJson(const JsonValue& root);

/// Convenience: parse + validate a JSON document in one call.
[[nodiscard]] Status validateRunReportText(std::string_view text);

/// Schema identifier of the golden differential report (emitted by
/// golden::DifferentialReport::toJson; the constant lives here so report
/// tooling can dispatch on it without linking the golden library).
inline constexpr const char* kGoldenReportSchema = "pllbist.golden_report/1";

/// Validate a parsed document against the golden_report schema: required
/// keys and types, ascending tolerance bands, per-point band/tolerance
/// consistency, summary counters (compared + excluded vs points, maxima
/// match the per-point deltas). Returns InvalidArgument naming the first
/// violated rule. The timing-field contract matches RunReport
/// (quality.wall_time_s, points[].wall_time_s may be stripped).
[[nodiscard]] Status validateGoldenReportJson(const JsonValue& root);

/// Convenience: parse + validate a golden report in one call.
[[nodiscard]] Status validateGoldenReportText(std::string_view text);

/// The timing-dependent JSON paths of a report, as documented contract:
/// "quality.wall_time_s", "points[].wall_time_s", and every metric whose
/// name ends in "_wall_s". stripTimingFields() removes exactly these (used
/// by the determinism test; exposed so external diff tooling can apply the
/// same rule).
[[nodiscard]] const std::vector<std::string>& runReportTimingFields();
void stripTimingFields(JsonValue& root);

/// FNV-1a over a byte string (the config-digest primitive).
[[nodiscard]] uint64_t fnv1a64(std::string_view bytes);
/// A digest as every report and journal writes it: "0x" and 16 lower-case
/// hex digits.
[[nodiscard]] std::string digestHex(uint64_t digest);

/// Write the RunReport `quality` object; the golden report embeds the same.
void writeQuality(JsonWriter& w, const RunReport::Quality& q);

/// Write one MetricsSnapshot as the RunReport `metrics` object
/// ({counters:[],gauges:[],histograms:[]}); exposed so other report shapes
/// (e.g. the production-screening lot report) embed the identical section.
void writeMetricsJson(JsonWriter& w, const MetricsSnapshot& m);

}  // namespace pllbist::obs
