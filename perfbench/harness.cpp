// Benchmark harness entry point (built and launched by run.py).
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     --out-dir <dir> [--units <n>]
//
// Prints a human-readable summary, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1 (spans are
// then written to <out-dir>/spans-<workload>-<seed>.jsonl). Exit 0 when every
// correctness gate held, 1 when one failed, 2 on a usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "spans.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload reference_bode|screening_lot|campaign_resume --seed N "
               "--seconds S --trace 0|1 --out-dir DIR [--units N]\n",
               argv0);
  return 2;
}

/// JSON number with every digit; a non-finite value (a latency percentile
/// that failed operations pushed past every limit) prints as 1e300.
std::string number(double v) {
  if (!std::isfinite(v)) return "1e300";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.start_ns = perfbench::nowNs();
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0.0;
    } else if (arg == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--units") {
      options.units = std::atoi(value.c_str());
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage(argv[0]);
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::workloadNames()) known = known || name == options.workload;
  if (!known || !have_seed || !have_seconds || !have_trace || options.out_dir.empty())
    return usage(argv[0]);

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  perfbench::SpanRecorder spans(options.trace);
  perfbench::Result result;
  try {
    result = perfbench::runWorkload(options, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", options.workload.c_str(), e.what());
    return 1;
  }

  const auto& metrics = options.trace ? result.per_layer : result.end_to_end;
  for (const perfbench::Metric& m : metrics)
    std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (const std::string& f : result.failures) std::printf("  GATE FAILED: %s\n", f.c_str());

  if (options.trace) {
    const std::string path =
        options.out_dir + "/spans-" + options.workload + "-" + std::to_string(options.seed) + ".jsonl";
    const std::string header = "{\"workload\":\"" + options.workload +
                               "\",\"seed\":" + std::to_string(options.seed) + "}";
    if (!spans.writeJsonl(path, header)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("  spans: %zu written to %s\n", spans.size(), path.c_str());
  }

  const bool correct = result.failures.empty();
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
