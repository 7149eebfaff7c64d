// Serial vs parallel point-farm sweep: runs the same Fig. 11 reference
// sweep through bist::ParallelSweep at --jobs 1 (the serial reference
// execution) and at --jobs N, prints the wall-clock times and speedup, the
// exact kernel counts and the loop's work units per point, and checks the
// determinism contract — every Bode point, counter and status must be
// bit-identical between the two runs.
//
//   perf_parallel_sweep [--jobs N] [--points N] [--device reference|fast]
//
// Exit code is 1 only when the determinism check fails (a wrong result);
// timing is reported but never gates, so the binary stays usable on
// loaded or single-core CI hosts.

#include <cstdio>
#include <cstring>
#include <string>

#include "bist/parallel_sweep.hpp"
#include "farm_ledger.hpp"
#include "obs/metrics.hpp"
#include "pll/config.hpp"

namespace {

using namespace pllbist;

bool bitIdentical(const bist::ResilientResponse& a, const bist::ResilientResponse& b) {
  bool same = true;
  auto mismatch = [&](const char* what) {
    std::printf("MISMATCH: %s differs between jobs=1 and jobs=N\n", what);
    same = false;
  };
  if (a.response.points.size() != b.response.points.size()) {
    mismatch("point count");
    return false;
  }
  // memcmp-grade equality on every double: the contract is bit-identical,
  // not approximately equal.
  for (std::size_t i = 0; i < a.response.points.size(); ++i) {
    const bist::MeasuredPoint& pa = a.response.points[i];
    const bist::MeasuredPoint& pb = b.response.points[i];
    if (std::memcmp(&pa.modulation_hz, &pb.modulation_hz, sizeof(double)) != 0 ||
        std::memcmp(&pa.deviation_hz, &pb.deviation_hz, sizeof(double)) != 0 ||
        std::memcmp(&pa.phase_deg, &pb.phase_deg, sizeof(double)) != 0)
      mismatch("point values");
  }
  if (std::memcmp(&a.response.nominal_vco_hz, &b.response.nominal_vco_hz, sizeof(double)) != 0)
    mismatch("nominal VCO frequency");
  if (std::memcmp(&a.response.static_reference_deviation_hz,
                  &b.response.static_reference_deviation_hz, sizeof(double)) != 0)
    mismatch("static reference deviation");
  if (a.report.ok != b.report.ok || a.report.retried != b.report.retried ||
      a.report.degraded != b.report.degraded || a.report.dropped != b.report.dropped ||
      a.report.attempts_total != b.report.attempts_total || a.report.relocks != b.report.relocks)
    mismatch("quality report counters");
  if (a.status.kind() != b.status.kind()) mismatch("sweep status");
  return same;
}

void printRun(int jobs, const bench::FarmRun& run, double ref_hz) {
  const bist::ResilientResponse& r = run.result;
  std::printf("  jobs=%d: %6.2f s wall  (%.1f s simulated, %zu points, %s)\n", jobs,
              r.report.wall_time_s, r.report.sim_time_s, r.response.points.size(),
              r.report.summary().c_str());
  const bench::FarmFigures f(run, jobs, ref_hz);
  std::printf("          %.1f points/s, %.1f simulated s per wall s, worker utilisation %.2f\n",
              f.points_per_s, f.sim_s_per_wall_s, f.worker_utilisation);
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 4;
  int points = 8;
  std::string device = "reference";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "usage: %s [--jobs N] [--points N] [--device reference|fast]\n",
                     argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--jobs") jobs = std::stoi(next());
    else if (arg == "--points") points = std::stoi(next());
    else if (arg == "--device") device = next();
    else next();  // unknown flag: print usage and exit
  }
  if (jobs < 1) jobs = 1;
  if (points < 2) points = 2;

  pll::PllConfig cfg;
  bist::SweepOptions sweep;
  if (device == "reference") {
    cfg = pll::referenceConfig();
    sweep = bench::referenceSweepOptions(points);
  } else {
    cfg = pll::scaledTestConfig();
    sweep = bist::quickSweepOptions(cfg, bist::StimulusKind::MultiToneFsk, points);
  }

  std::printf("parallel point-farm bench: %s device, %d points\n", device.c_str(), points);

  const bench::FarmRun serial_run = bench::runFarm(cfg, sweep, 1);
  printRun(1, serial_run, cfg.ref_frequency_hz);
  const bench::FarmRun parallel_run = bench::runFarm(cfg, sweep, jobs);
  printRun(jobs, parallel_run, cfg.ref_frequency_hz);
  const bist::ResilientResponse& serial = serial_run.result;
  const bist::ResilientResponse& parallel = parallel_run.result;
  const bench::FarmFigures exact(serial_run, 1, cfg.ref_frequency_hz);
  std::printf("kernel: %.0f events per point (%llu events), %.4f simulated s per point, "
              "%.1f events per reference cycle, %.1f swallowed per point; the same at every "
              "--jobs\n",
              exact.events_per_point, static_cast<unsigned long long>(serial.bench.events_processed),
              exact.sim_s_per_point, exact.events_per_ref_cycle, exact.swallowed_per_point);
  std::printf("loop: %.1f PFD writes and %.1f VCO stops per point (work units); the same at "
              "every --jobs\n",
              exact.pfd_writes_per_point, exact.vco_stops_per_point);

  const double speedup = parallel.report.wall_time_s > 0.0
                             ? serial.report.wall_time_s / parallel.report.wall_time_s
                             : 0.0;
  std::printf("speedup at --jobs %d: %.2fx\n", jobs, speedup);

  // Per-point latency distribution, read back from the telemetry histogram
  // the engines populate (both runs land in the same process-wide metric).
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  if (const obs::HistogramValue* h = snap.findHistogram("bist.sweep.point_wall_s");
      h != nullptr && h->count > 0) {
    std::printf("point latency (%llu points, both runs): p50 %.1f ms  p95 %.1f ms  max %.1f ms\n",
                static_cast<unsigned long long>(h->count), h->quantile(0.50) * 1e3,
                h->quantile(0.95) * 1e3, h->max * 1e3);
  }

  if (!bitIdentical(serial, parallel)) {
    std::printf("FAIL: determinism contract violated\n");
    return 1;
  }
  std::printf("determinism: all %zu points bit-identical across job counts [ok]\n",
              serial.response.points.size());
  return 0;
}
