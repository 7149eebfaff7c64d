#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "bist/resilient_sweep.hpp"
#include "common/status.hpp"
#include "pll/config.hpp"

namespace pllbist::bist {

/// Policy knobs of the parallel point-farm executor.
struct ParallelSweepOptions {
  /// Worker threads. 0 = one per hardware thread; always clamped to the
  /// number of sweep points. 1 is the serial reference execution — by
  /// contract it produces bit-identical results to any other job count.
  int jobs = 0;
  /// Retry/relock/degrade policy applied to every point's engine. Its
  /// relock_breaker is decided by the farm, across points, in index order.
  ResilientSweepOptions resilience;

  /// Structured check; every rejection names the offending field and value.
  [[nodiscard]] Status check() const;
  /// check().throwIfError() — kept for the exception-based API.
  void validate() const;
};

/// Deterministic per-point seed derivation (splitmix64 over the base seed
/// and the point index). The farm runs the shared prelude with the jitter
/// seed of point 0 and re-seeds each fork's stimulus jitter RNG with its
/// own point's seed; test/campaign hooks are expected to use it for
/// per-point FaultInjector seeds, so results never depend on which worker
/// ran a point or in what order.
[[nodiscard]] uint64_t pointSeed(uint64_t base_seed, std::size_t point_index);

/// The base sweep restricted to point `index`: one modulation frequency,
/// jitter RNG re-seeded via pointSeed(). This is the options recipe of
/// every farm point's bench. A standalone ResilientSweep on it runs the
/// same prelude as the farm's source and then the same point, so without
/// jitter it reproduces the farm's point bit-exactly (see ParallelSweep).
[[nodiscard]] SweepOptions singlePointOptions(const SweepOptions& base, std::size_t index);

/// Parallel point-farm sweep executor. Like the paper's monitor, the farm
/// locks the loop and takes the nominal count and the eqn (7) DC reference
/// once per device — the prelude, simulated once on a source
/// SweepTestbench — and then measures every FM frequency point on its own
/// fork of that locked bench (SweepTestbench::copyStateFrom: own
/// sim::Circuit, own per-point jitter seed). The forks run the
/// ResilientSweep retry/relock point loop on a worker pool, and their
/// results merge into one order-stable MeasuredResponse + combined
/// SweepQualityReport.
///
/// Fork model: every point starts from the same locked state and is
/// referenced to the shared nominal, so a point's numbers are independent
/// of every other point. Without jitter a point is bit-identical to a
/// standalone ResilientSweep on singlePointOptions(), whose own prelude
/// is the same simulation. Each point's sim_time_s and BenchStats count
/// only its work after the fork; the merged result adds the prelude's
/// once. A stall or stop during the prelude labels every pending point
/// with that status. Note this differs from the shared-bench
/// ResilientSweep, where later points inherit the loop state their
/// predecessors left behind; the farm's contract is instead jobs-count
/// invariance:
///
/// Determinism: for a fixed configuration and seed set, run() produces
/// bit-identical points, report counters and statuses for every value of
/// `jobs` — only wall_time_s varies. A fatal failure on one point never
/// stops the others; it is recorded on that point and as the sweep status.
///
/// Relock breaker: the farm feeds finished points through one RelockBreaker
/// strictly in index order. Once it opens, every later point merges as
/// not attempted (attempts 0, RelockFailed, "breaker" in the context) and
/// contributes nothing else to the merged result — whether it ran, was
/// preloaded, or never ran — so the verdict is jobs-invariant too. Workers
/// stop claiming points as soon as the finished prefix has tripped it.
class ParallelSweep {
 public:
  ParallelSweep(const pll::PllConfig& config, SweepOptions sweep,
                ParallelSweepOptions options = {});

  /// Fired on the owning worker's thread on the point's forked bench, after
  /// the shared prelude and before attempt 0: (point_index, bench). Attach
  /// per-point fault injection here, seeding with pointSeed() to keep the
  /// jobs-count invariance; it covers the measurement, not the lock
  /// acquisition. The callback must only touch that bench.
  void onPointTestbench(std::function<void(std::size_t, SweepTestbench&)> cb) {
    on_point_testbench_ = std::move(cb);
  }

  /// Fired (serialised, but possibly out of point order) as each point's
  /// final classification lands: (point_index, point).
  void onPointMeasured(std::function<void(std::size_t, const MeasuredPoint&)> cb) {
    progress_ = std::move(cb);
  }

  /// Per-point sink: (point_index, the point's single-point result). Runs
  /// on the worker, under the same lock as onPointMeasured and before it,
  /// in completion order, for every executed point that produced a
  /// non-Cancelled classification. A non-ok return stops the farm, and the
  /// first such status becomes the sweep status. A campaign journals here,
  /// so a point is durable before it is reported.
  void onPointResult(std::function<Status(std::size_t, const ResilientResponse&)> sink) {
    sink_ = std::move(sink);
  }

  /// Supply point `index` as already complete (e.g. replayed from a
  /// checkpoint journal): a single-point result as the sink received it —
  /// exactly one point and one raw entry, counting only the work after the
  /// fork. It is merged in index order like an executed point and never
  /// re-run, nor passed to the sink. Call before run().
  void preload(std::size_t index, ResilientResponse result);

  /// Cooperative stop, callable from any thread (including a progress
  /// callback or a signal-handling path via chainStop). Workers abandon
  /// their in-flight point at the next poll, claim nothing further, and
  /// join; never-claimed points merge as Dropped/Cancelled so the quality
  /// report still accounts for every requested frequency exactly once.
  void requestStop() { stop_.requestStop(); }

  /// Also honour `upstream` (e.g. the process-global signal token). Call
  /// before run().
  void chainStop(const StopSource* upstream) { stop_.chainTo(upstream); }

  /// Run the sweep. May be called once per instance.
  ResilientResponse run();

 private:
  pll::PllConfig config_;
  SweepOptions sweep_;
  ParallelSweepOptions options_;
  std::function<void(std::size_t, SweepTestbench&)> on_point_testbench_;
  std::function<void(std::size_t, const MeasuredPoint&)> progress_;
  std::function<Status(std::size_t, const ResilientResponse&)> sink_;
  std::vector<std::optional<ResilientResponse>> results_;  ///< per point, once finished
  StopSource stop_;
  bool used_ = false;
};

}  // namespace pllbist::bist
