#pragma once

// The farm ledger's fixed workload (BENCH_farm.json): the Fig. 11
// reference sweep on bist::ParallelSweep, and the figures the ledger
// records for one run of it. Shared by perf_parallel_sweep, which prints
// them, and ledger_check, which gates on the deterministic ones.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bist/parallel_sweep.hpp"
#include "pll/config.hpp"

namespace pllbist::bench {

/// The reference device's Fig. 11 multi-tone FSK sweep over `points`
/// modulation frequencies.
inline bist::SweepOptions referenceSweepOptions(int points) {
  const pll::ReferenceStimulus stim = pll::referenceStimulus();
  bist::SweepOptions opt;
  opt.stimulus = bist::StimulusKind::MultiToneFsk;
  opt.fm_steps = stim.fm_steps;
  opt.deviation_hz = stim.max_deviation_hz;
  opt.master_clock_hz = stim.master_clock_hz;
  opt.modulation_frequencies_hz = bist::SweepOptions::defaultSweep(8.0, points);
  return opt;
}

/// One farm run and the summed busy time of its points, each timed from
/// its onPointTestbench hook to its onPointMeasured hook (perfbench's
/// point span).
struct FarmRun {
  bist::ResilientResponse result;
  double busy_s = 0.0;
};

inline FarmRun runFarm(const pll::PllConfig& cfg, const bist::SweepOptions& sweep, int jobs) {
  using Clock = std::chrono::steady_clock;
  const std::size_t n = sweep.modulation_frequencies_hz.size();
  std::vector<std::atomic<int64_t>> start(n), end(n);  // ns; hooks fire on workers
  auto now_ns = [] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
        .count();
  };
  bist::ParallelSweepOptions popt;
  popt.jobs = jobs;
  bist::ParallelSweep farm(cfg, sweep, popt);
  farm.onPointTestbench([&](std::size_t i, bist::SweepTestbench&) { start[i] = now_ns(); });
  farm.onPointMeasured([&](std::size_t i, const bist::MeasuredPoint&) { end[i] = now_ns(); });
  FarmRun run{farm.run(), 0.0};
  for (std::size_t i = 0; i < n; ++i)
    if (start[i] > 0 && end[i] >= start[i]) run.busy_s += 1e-9 * static_cast<double>(end[i] - start[i]);
  return run;
}

/// One farm run's ledger figures. The per-point work counts are exact and
/// the same at every job count; the rest is wall-clock data.
struct FarmFigures {
  double events_per_point = 0.0;     ///< kernel events processed / points
  double sim_s_per_point = 0.0;      ///< simulated loop seconds / points
  /// events_per_point / (sim_s_per_point * reference frequency): the
  /// kernel events one reference cycle of the loop costs.
  double events_per_ref_cycle = 0.0;
  /// Kernel events swallowed (no-change writes, superseded handler events)
  /// / points.
  double swallowed_per_point = 0.0;
  /// The loop's work units / points: PFD writes applied and VCO stops.
  /// Most of them are not kernel events, since the loop runs ahead.
  double pfd_writes_per_point = 0.0;
  double vco_stops_per_point = 0.0;
  double points_per_s = 0.0;      ///< points / farm wall time
  double sim_s_per_wall_s = 0.0;  ///< simulated loop seconds / farm wall time
  /// Summed point busy time / (workers * farm wall time); the farm runs
  /// min(jobs, points) workers.
  double worker_utilisation = 0.0;

  FarmFigures(const FarmRun& run, int jobs, double ref_frequency_hz) {
    const bist::ResilientResponse& r = run.result;
    const double points = static_cast<double>(r.response.points.size());
    const double wall = r.report.wall_time_s;
    events_per_point = static_cast<double>(r.bench.events_processed) / points;
    sim_s_per_point = r.report.sim_time_s / points;
    events_per_ref_cycle = events_per_point / (sim_s_per_point * ref_frequency_hz);
    swallowed_per_point = static_cast<double>(r.bench.events_swallowed) / points;
    pfd_writes_per_point = static_cast<double>(r.bench.loop_pfd_writes) / points;
    vco_stops_per_point = static_cast<double>(r.bench.loop_vco_stops) / points;
    if (wall > 0.0) {
      points_per_s = points / wall;
      sim_s_per_wall_s = r.report.sim_time_s / wall;
      worker_utilisation = run.busy_s / (std::min(static_cast<double>(jobs), points) * wall);
    }
  }
};

}  // namespace pllbist::bench
