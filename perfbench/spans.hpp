// In-memory span recorder and sample statistics for the benchmark harness.
//
// Spans are recorded by the harness itself around the calls it makes into
// each layer (and from the per-point hooks), kept in memory, and written out
// once the run ends. A disabled recorder costs one branch per call.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
int64_t nowNs();

struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t unit = 0;    ///< device or DUT the span belongs to
  int64_t start_ns = 0;
  int64_t end_ns = -1;  ///< -1 while open
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span starting now (or at `start_ns` when given); returns its id,
  /// 0 when disabled. Thread-safe.
  uint64_t begin(const char* name, uint64_t parent, uint64_t unit, int64_t start_ns = -1);
  /// Close span `id` now (or at `end_ns` when given). No-op for id 0.
  void end(uint64_t id, int64_t end_ns = -1);

  [[nodiscard]] std::size_t size() const;

  /// Seconds per span name of span time not covered by the span's children
  /// (children may overlap each other; their union is subtracted).
  [[nodiscard]] std::map<std::string, double> selfSeconds() const;

  /// Write every span as one JSON object per line.
  bool writeJsonl(const std::string& path, const std::string& header_line) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; span id = index + 1
};

/// Linear-interpolation quantile of `xs` (q in [0, 1]); +inf samples (failed
/// operations) sort last, so they count as missing any latency limit.
double quantile(std::vector<double> xs, double q);

/// Median of `xs` (0 when empty).
double median(std::vector<double> xs);

}  // namespace perfbench
