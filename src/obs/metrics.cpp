#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace pllbist::obs {

namespace detail {

enum class Kind { Counter, Gauge, Histogram };

struct Metric {
  std::string name;
  Kind kind = Kind::Counter;
  std::atomic<uint64_t> count{0};  // counters
  std::atomic<double> value{0.0};  // gauges
  std::atomic<bool> ever_set{false};
  std::mutex histogram_mutex;
  HistogramValue histogram;  // histograms; guarded by histogram_mutex

  void resetHistogram() {
    histogram.buckets.assign(histogram.bounds.size() + 1, 0);  // +1 overflow bucket
    histogram.count = 0;
    histogram.sum = histogram.min = histogram.max = 0.0;
  }
};

}  // namespace detail

// ---------------------------------------------------------------------------
// Handles.

void Counter::add(uint64_t delta) const {
  if (metric_ != nullptr) metric_->count.fetch_add(delta, std::memory_order_relaxed);
}

void Gauge::set(double value) const {
  if (metric_ == nullptr) return;
  metric_->value.store(value, std::memory_order_relaxed);
  metric_->ever_set.store(true, std::memory_order_release);
}

void Histogram::observe(double value) const {
  if (metric_ == nullptr) return;
  std::lock_guard<std::mutex> guard(metric_->histogram_mutex);
  HistogramValue& h = metric_->histogram;
  const auto bound =
      std::find_if(h.bounds.begin(), h.bounds.end(), [value](double b) { return value <= b; });
  ++h.buckets[static_cast<std::size_t>(bound - h.bounds.begin())];  // end() = overflow
  if (h.count == 0 || value < h.min) h.min = value;
  if (h.count == 0 || value > h.max) h.max = value;
  h.sum += value;
  ++h.count;
}

// ---------------------------------------------------------------------------
// Registry.

struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  std::deque<detail::Metric> metrics;  // registration order; growth never moves a metric
  std::unordered_map<std::string, detail::Metric*> by_name;

  detail::Metric* findOrCreate(std::string_view name, detail::Kind kind,
                               std::vector<double> bounds) {
    std::lock_guard<std::mutex> guard(mutex);
    auto it = by_name.find(std::string(name));
    if (it != by_name.end()) {
      detail::Metric* m = it->second;
      if (m->kind != kind)
        throw std::invalid_argument("MetricsRegistry: metric '" + std::string(name) +
                                    "' re-registered with a different kind");
      if (kind == detail::Kind::Histogram && m->histogram.bounds != bounds)
        throw std::invalid_argument("MetricsRegistry: histogram '" + std::string(name) +
                                    "' re-registered with different buckets");
      return m;
    }
    detail::Metric& m = metrics.emplace_back();
    m.name = std::string(name);
    m.kind = kind;
    m.histogram.name = m.name;
    m.histogram.bounds = std::move(bounds);
    m.resetHistogram();
    by_name.emplace(m.name, &m);
    return &m;
  }
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}
MetricsRegistry::~MetricsRegistry() { delete impl_; }

Counter MetricsRegistry::counter(std::string_view name) {
  return Counter(impl_->findOrCreate(name, detail::Kind::Counter, {}));
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  return Gauge(impl_->findOrCreate(name, detail::Kind::Gauge, {}));
}

Histogram MetricsRegistry::histogram(std::string_view name, std::vector<double> bounds) {
  if (bounds.empty() || bounds.size() > kMaxHistogramBuckets)
    throw std::invalid_argument("MetricsRegistry: histogram needs 1.." +
                                std::to_string(kMaxHistogramBuckets) + " bucket bounds");
  if (!std::is_sorted(bounds.begin(), bounds.end()) ||
      std::adjacent_find(bounds.begin(), bounds.end()) != bounds.end())
    throw std::invalid_argument("MetricsRegistry: histogram bounds must be strictly ascending");
  return Histogram(impl_->findOrCreate(name, detail::Kind::Histogram, std::move(bounds)));
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> guard(impl_->mutex);
  for (detail::Metric& m : impl_->metrics) {
    switch (m.kind) {
      case detail::Kind::Counter:
        out.counters.push_back({m.name, m.count.load(std::memory_order_relaxed)});
        break;
      case detail::Kind::Gauge: {
        const bool ever_set = m.ever_set.load(std::memory_order_acquire);
        out.gauges.push_back({m.name, m.value.load(std::memory_order_relaxed), ever_set});
        break;
      }
      case detail::Kind::Histogram: {
        std::lock_guard<std::mutex> hist_guard(m.histogram_mutex);
        out.histograms.push_back(m.histogram);
        break;
      }
    }
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> guard(impl_->mutex);
  for (detail::Metric& m : impl_->metrics) {
    m.count.store(0, std::memory_order_relaxed);
    m.value.store(0.0, std::memory_order_relaxed);
    m.ever_set.store(false, std::memory_order_relaxed);
    std::lock_guard<std::mutex> hist_guard(m.histogram_mutex);
    m.resetHistogram();
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

std::vector<double> MetricsRegistry::latencyBucketsSeconds() {
  return {0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0};
}

// ---------------------------------------------------------------------------
// Snapshot queries.

const CounterValue* MetricsSnapshot::findCounter(std::string_view name) const& {
  for (const CounterValue& c : counters)
    if (c.name == name) return &c;
  return nullptr;
}

const GaugeValue* MetricsSnapshot::findGauge(std::string_view name) const& {
  for (const GaugeValue& g : gauges)
    if (g.name == name) return &g;
  return nullptr;
}

const HistogramValue* MetricsSnapshot::findHistogram(std::string_view name) const& {
  for (const HistogramValue& h : histograms)
    if (h.name == name) return &h;
  return nullptr;
}

double HistogramValue::quantile(double q) const {
  if (count == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  if (q >= 1.0) return max;
  if (q <= 0.0) return min;
  const double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      // Interpolate inside this bucket. The first populated bucket starts
      // at the recorded min; the overflow bucket ends at the recorded max.
      const double lo = (cumulative == 0) ? min : (i == 0 ? min : bounds[i - 1]);
      const double hi = (i < bounds.size()) ? bounds[i] : max;
      const double f = (target - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
      return std::clamp(lo + f * (hi - lo), min, max);
    }
    cumulative += in_bucket;
  }
  return max;
}

}  // namespace pllbist::obs
