#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace pllbist::obs {

class MetricsRegistry;

/// Immutable view of one histogram at snapshot time.
struct HistogramValue {
  std::string name;
  std::vector<double> bounds;     ///< ascending upper bounds; buckets = bounds+1
  std::vector<uint64_t> buckets;  ///< bounds.size() + 1 (last = overflow)
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< only meaningful when count > 0
  double max = 0.0;

  /// Quantile estimate (q in [0, 1]) by linear interpolation inside the
  /// bucket that holds the q-th observation; exact for q = 1 (returns max).
  /// NaN when the histogram is empty.
  [[nodiscard]] double quantile(double q) const;
};

struct CounterValue {
  std::string name;
  uint64_t value = 0;
};

struct GaugeValue {
  std::string name;
  double value = 0.0;
  bool ever_set = false;
};

/// Point-in-time view of a registry. Metrics appear in registration order,
/// so two snapshots of identically-driven registries serialise identically.
struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  // Lvalue-qualified: the returned pointer aims into this snapshot, so
  // calling on a temporary (`reg.snapshot().findCounter(...)`) would dangle
  // the moment the full expression ends. Bind the snapshot to a local first.
  [[nodiscard]] const CounterValue* findCounter(std::string_view name) const&;
  [[nodiscard]] const GaugeValue* findGauge(std::string_view name) const&;
  [[nodiscard]] const HistogramValue* findHistogram(std::string_view name) const&;
  const CounterValue* findCounter(std::string_view) const&& = delete;
  const GaugeValue* findGauge(std::string_view) const&& = delete;
  const HistogramValue* findHistogram(std::string_view) const&& = delete;
};

namespace detail {
struct Metric;
}  // namespace detail

/// Monotonically increasing counter handle. Copyable, trivially small; a
/// record is one relaxed fetch_add on the metric's cell. All operations are
/// no-ops on a default-constructed handle.
class Counter {
 public:
  Counter() = default;
  void add(uint64_t delta) const;
  void increment() const { add(1); }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::Metric* m) : metric_(m) {}
  detail::Metric* metric_ = nullptr;
};

/// Last-writer-wins gauge handle.
class Gauge {
 public:
  Gauge() = default;
  void set(double value) const;

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::Metric* m) : metric_(m) {}
  detail::Metric* metric_ = nullptr;
};

/// Fixed-bucket histogram handle.
class Histogram {
 public:
  Histogram() = default;
  void observe(double value) const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::Metric* m) : metric_(m) {}
  detail::Metric* metric_ = nullptr;
};

/// Registry of named counters, gauges and fixed-bucket histograms.
///
/// One cell per metric, shared by every thread: a counter is an atomic
/// fetch_add, a gauge an atomic store, a histogram an update under its own
/// mutex. Instrumentation records a few values per sweep point, far too few
/// for contention on a shared cell to show.
///
/// Registering the same name twice returns the same metric (the kinds must
/// match; a kind clash throws std::invalid_argument).
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Gauge gauge(std::string_view name);
  /// `bounds` are ascending upper bucket bounds; an implicit +inf overflow
  /// bucket is appended. Re-registration must repeat identical bounds.
  [[nodiscard]] Histogram histogram(std::string_view name, std::vector<double> bounds);

  /// Ordered copy of every metric. Safe to call while other threads record
  /// (their in-flight updates may or may not be included).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zero every metric (definitions stay registered). Used between runs
  /// when one process performs several independent sweeps.
  void reset();

  /// Process-wide default registry; what the built-in instrumentation and
  /// the RunReport exporters use.
  static MetricsRegistry& global();

  /// Convenience buckets for wall-clock latencies in seconds (1 ms .. 30 s,
  /// log-spaced) — the shape used by bist.sweep.point_wall_s.
  static std::vector<double> latencyBucketsSeconds();

 private:
  struct Impl;
  Impl* impl_;
};

/// Default histogram bucket count sanity bound (schema + memory guard).
inline constexpr std::size_t kMaxHistogramBuckets = 64;

}  // namespace pllbist::obs
