// The three benchmark workloads. Each builds its inputs from the run seed,
// sets up (several times, for a steady set-up figure), drives the program
// through its public calls for at least the requested seconds, checks the
// outputs, and returns every end-to-end and per-layer metric.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Units (devices or DUTs) the exact metrics are computed over; the timed
  /// phase never ends before they are done. 0 = the workload's default.
  int units = 0;
  std::string out_dir;     ///< spans and journals go here
  int64_t start_ns = 0;    ///< harness start, for the first set-up figure
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::vector<std::string> failures;  ///< correctness gates that did not hold
  uint64_t attempted = 0;  ///< operations attempted in the timed phase
  uint64_t failed = 0;     ///< of which failed
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

[[nodiscard]] const std::vector<std::string>& workloadNames();

/// Run one workload. Spans are recorded into `spans` when it is enabled.
[[nodiscard]] Result runWorkload(const Options& options, SpanRecorder& spans);

}  // namespace perfbench
