#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "bist/sweep_types.hpp"
#include "common/status.hpp"
#include "common/stop_token.hpp"
#include "obs/report.hpp"
#include "pll/config.hpp"

namespace pllbist::bist {

class SweepTestbench;

/// Policy knobs of the retry/relock/degrade layer.
struct ResilientSweepOptions {
  /// Measurement attempts per point before it is Dropped.
  int max_attempts = 3;
  /// Escalation factor applied to the sequencer's settle_periods and
  /// timeout_periods on each retry (attempt k runs with backoff^k): a point
  /// that timed out because the loop settled slowly gets progressively more
  /// modulation periods to respond.
  double settle_backoff = 2.0;
  /// Natural periods to wait for re-lock once a lock loss is declared. If the
  /// loop re-locks the event counts as a relock and the point is retried
  /// (Degraded at best); if not, the point is Dropped with RelockFailed and
  /// the sweep moves on.
  double relock_wait_periods = 20.0;
  /// Host wall-clock budget per point, all attempts and relock waits
  /// included; 0 disables. An over-budget point is Dropped with
  /// DeadlineExceeded and the sweep moves on — never a hang. Wall-clock
  /// based, so it trades the bit-identical determinism contract for a
  /// bounded run; leave at 0 where reports must be reproducible.
  double point_budget_s = 0.0;
  /// Relock circuit breaker: after this many *consecutive* points, in
  /// point-index order, dropped as relock failures, remaining points are
  /// dropped without attempts (status RelockFailed, "circuit breaker
  /// open"); 0 disables. A device that cycle-slips near its hold-in
  /// boundary stops burning retry budget on every remaining point. See
  /// RelockBreaker.
  int relock_breaker = 0;

  /// Structured check; every rejection names the offending field and value.
  [[nodiscard]] Status check() const;
  /// check().throwIfError() — kept for the exception-based API.
  void validate() const;
};

/// Per-sweep quality accounting produced by ResilientSweep. The counts
/// themselves are the RunReport's quality block (obs::RunReport::Quality).
struct SweepQualityReport : obs::RunReport::Quality {
  /// Count one finished point: its quality and its attempts. Every point
  /// a run records is counted here once; only relocks and relock failures
  /// are counted where they happen.
  void count(const MeasuredPoint& p);

  /// Add another run's counts and simulated time; wall time is not summed.
  void add(const SweepQualityReport& other) {
    points_total += other.points_total;
    ok += other.ok;
    retried += other.retried;
    degraded += other.degraded;
    dropped += other.dropped;
    attempts_total += other.attempts_total;
    relocks += other.relocks;
    relock_failures += other.relock_failures;
    sim_time_s += other.sim_time_s;
  }

  /// True when every point measured cleanly on its first attempt.
  [[nodiscard]] bool clean() const { return retried == 0 && degraded == 0 && dropped == 0; }
  /// Points that produced a usable measurement (everything but Dropped).
  [[nodiscard]] int usable() const { return ok + retried + degraded; }
  /// One-line human-readable digest, e.g.
  /// "7 points: 5 ok, 1 retried, 1 degraded, 0 dropped; 9 attempts,
  ///  1 relock (0 failed); 1.24 s simulated in 0.48 s wall".
  [[nodiscard]] std::string summary() const;
};

/// Per-engine simulator statistics, read off the bench at the end of a
/// run: the circuit's event-kernel counters, the loop's work units (its
/// instants, most of which are not kernel events), plus the fault
/// injector's rule statistics when one was attached, counted from where
/// the run started
/// (a farm point counts from its fork). Deterministic for a fixed
/// configuration and seed set, so the campaign journal records them per
/// point and a resumed merge reproduces the uninterrupted totals exactly —
/// without consulting the (history-dependent) global registry.
/// Each counter is one field and one kCounters row, from which the journal,
/// the RunReport, the registry and the campaign's metrics block write it.
struct BenchStats {
  uint64_t events_processed = 0;
  uint64_t events_delivered = 0;
  uint64_t events_dropped = 0;
  uint64_t events_delayed = 0;
  uint64_t events_swallowed = 0;
  uint64_t loop_pfd_writes = 0;  ///< pll::CpPll::pfdWrites()
  uint64_t loop_vco_stops = 0;   ///< pll::CpPll::vcoStops()
  uint64_t fault_benches = 0;  ///< benches with a FaultInjector attached
  uint64_t faults_considered = 0;
  uint64_t faults_dropped = 0;
  uint64_t faults_delayed = 0;
  uint64_t faults_glitches = 0;

  /// The record block a counter is written in, in the order every record
  /// writes them.
  enum class Block { Kernel, Loop, Faults };
  static constexpr std::array<Block, 3> kBlocks{Block::Kernel, Block::Loop, Block::Faults};
  /// One counter: its field, where the journal record and the RunReport
  /// write it, and its metric name in the registry and the campaign report.
  struct Counter {
    uint64_t BenchStats::*field;
    Block block;
    const char* key;     ///< its key inside the block
    const char* metric;  ///< e.g. "sim.kernel.events_processed"
    bool reported;       ///< the RunReport carries it (it leaves out faults.benches)
  };
  /// Every counter, in the order every record writes them.
  static const std::array<Counter, 12> kCounters;

  [[nodiscard]] static const char* blockName(Block b) {
    return b == Block::Kernel ? "kernel" : b == Block::Loop ? "loop" : "faults";
  }
  /// Whether this run's records carry `b`: the fault block only when a
  /// fault injector was attached. Every record applies this one rule.
  [[nodiscard]] bool carries(Block b) const { return b != Block::Faults || fault_benches > 0; }

  void add(const BenchStats& other);
  /// The counters of `bench` now.
  [[nodiscard]] static BenchStats of(const SweepTestbench& bench);
  /// What accrued since `base` was read off the same bench (or the bench
  /// it was forked from).
  [[nodiscard]] BenchStats since(const BenchStats& base) const;
};

inline constexpr std::array<BenchStats::Counter, 12> BenchStats::kCounters{{
    {&BenchStats::events_processed, Block::Kernel, "processed", "sim.kernel.events_processed", true},
    {&BenchStats::events_delivered, Block::Kernel, "delivered", "sim.kernel.events_delivered", true},
    {&BenchStats::events_dropped, Block::Kernel, "dropped", "sim.kernel.events_dropped", true},
    {&BenchStats::events_delayed, Block::Kernel, "delayed", "sim.kernel.events_delayed", true},
    {&BenchStats::events_swallowed, Block::Kernel, "swallowed", "sim.kernel.events_swallowed", true},
    {&BenchStats::loop_pfd_writes, Block::Loop, "pfd_writes", "pll.loop.pfd_writes", true},
    {&BenchStats::loop_vco_stops, Block::Loop, "vco_stops", "pll.loop.vco_stops", true},
    {&BenchStats::fault_benches, Block::Faults, "benches", "sim.faults.benches", false},
    {&BenchStats::faults_considered, Block::Faults, "considered", "sim.faults.considered", true},
    {&BenchStats::faults_dropped, Block::Faults, "dropped", "sim.faults.dropped", true},
    {&BenchStats::faults_delayed, Block::Faults, "delayed", "sim.faults.delayed", true},
    {&BenchStats::faults_glitches, Block::Faults, "glitches", "sim.faults.glitches", true},
}};
static_assert(sizeof(BenchStats) == sizeof(uint64_t) * BenchStats::kCounters.size() &&
                  BenchStats::kCounters.back().field != nullptr,
              "every BenchStats field needs exactly one kCounters row");

inline void BenchStats::add(const BenchStats& other) {
  for (const Counter& c : kCounters) this->*c.field += other.*c.field;
}

inline BenchStats BenchStats::since(const BenchStats& base) const {
  BenchStats d = *this;
  for (const Counter& c : kCounters) d.*c.field -= base.*c.field;
  return d;
}

/// A MeasuredResponse plus its quality accounting. `status` is only
/// non-ok for conditions that ended the sweep early: the event queue
/// running dry (SimulationStall, wherever in the point it ran dry) or a
/// cooperative stop (Cancelled); per-point failures are recorded on the
/// points themselves and leave status ok. A prelude that fails still
/// yields every requested point, each Dropped and unattempted: Cancelled
/// after a stop, the prelude's SimulationStall status after a stall. A
/// finished run is published to the global metrics registry once
/// (publishRun, bist/telemetry.hpp).
struct ResilientResponse {
  MeasuredResponse response;
  SweepQualityReport report;
  Status status;
  BenchStats bench;          ///< this engine's private kernel/fault counters
  bool breaker_open = false; ///< the relock circuit breaker tripped
};

/// Append a point that produced no measurement — never attempted, never
/// claimed, or skipped by the relock breaker — to `out`: Dropped, zero
/// attempts, `status`, and counted in the quality report.
void appendDroppedPoint(ResilientResponse& out, double modulation_hz, Status status);

/// The relock circuit breaker (ResilientSweepOptions::relock_breaker). Fed
/// one classified point at a time in point-index order, it opens once
/// `limit` consecutive points were dropped as relock failures; every later
/// point is then skipped unattempted. A limit of 0 never opens. Both the
/// shared-bench ResilientSweep and the ParallelSweep farm decide through
/// this one rule, so the farm's verdict is the same for every job count.
class RelockBreaker {
 public:
  explicit RelockBreaker(int limit) : limit_(limit) {}

  /// Feed the next point in index order. Only call while !open().
  void record(const MeasuredPoint& p) {
    const bool relock_failure =
        p.quality == PointQuality::Dropped && p.status.kind() == Status::Kind::RelockFailed;
    consecutive_ = relock_failure ? consecutive_ + 1 : 0;
  }
  [[nodiscard]] bool open() const { return limit_ > 0 && consecutive_ >= limit_; }
  /// Status of point `index` skipped because the breaker is open.
  [[nodiscard]] Status skipStatus(std::size_t index, double modulation_hz) const;

 private:
  int limit_;
  int consecutive_ = 0;
};

/// The sweep engine: the Table 2 sequence (lock wait, nominal count, DC
/// reference, then settle, phase count, hold and frequency count per point)
/// with every point classified Ok/Retried/Degraded/Dropped:
///
///   - a timed-out point is retried with escalating settle/timeout
///     budgets, up to max_attempts;
///   - after each failed attempt the stimulus is parked and the in-loop
///     lock detector consulted; a loop that lost lock gets a bounded
///     relock-and-resume wait before the next attempt;
///   - a point whose budget is exhausted (or whose loop never re-locks)
///     is Dropped with a structured Status, and the sweep continues — a
///     catastrophic device yields a fully-labelled response, never a hang
///     or a throw.
///
/// max_attempts = 1 gives each point one attempt, as the paper runs it; a
/// timed-out point is still followed by the park-and-relock check.
class ResilientSweep {
 public:
  ResilientSweep(const pll::PllConfig& config, SweepOptions sweep,
                 ResilientSweepOptions resilience = {});

  /// Fired once the testbench is assembled, before the lock wait. Tests
  /// and campaigns attach sim-level fault injection here.
  void onTestbench(std::function<void(SweepTestbench&)> cb) { on_testbench_ = std::move(cb); }

  /// Fired before each measurement attempt (attempt 0 = first try).
  /// Deterministic hook for per-attempt fault choreography in tests.
  void onAttemptStart(std::function<void(std::size_t point_index, int attempt, SweepTestbench&)> cb) {
    on_attempt_start_ = std::move(cb);
  }

  /// Fired after each point's final classification.
  void onPointMeasured(std::function<void(const MeasuredPoint&)> cb) { progress_ = std::move(cb); }

  /// Attach a cooperative stop token (must outlive run()). The engine
  /// polls it at bounded intervals inside every sim loop; once tripped the
  /// in-flight point and every remaining point are recorded as Dropped
  /// with Cancelled, the sweep status becomes Cancelled, and run() returns
  /// a fully-labelled partial response — points_total always equals the
  /// requested point count, also when the stop (or a stall) ends the
  /// prelude before any point starts.
  void attachStop(const StopSource* stop) { stop_ = stop; }

  /// Run the sweep. May be called once per instance.
  ResilientResponse run();

  // run() is makeBench(), the onTestbench hook, runPrelude() and
  // runPoints(). The halves are public for engines that share one prelude
  // between several point loops: ParallelSweep runs the prelude once and
  // forks the bench (SweepTestbench::copyStateFrom) for every point.

  /// Where a run's accounting starts: the bench's simulated time and
  /// counters at that moment.
  struct Mark {
    double sim_time_s = 0.0;
    BenchStats bench;
  };

  /// What the prelude measured, shared by every point that follows it.
  struct Prelude {
    double nominal_vco_hz = 0.0;
    double static_reference_deviation_hz = 0.0;  ///< 0 for DelayLinePm
    /// SimulationStall when the queue ran dry, Cancelled (context: the
    /// stage it stopped in) on a stop; no point can be measured then.
    Status status;
    Mark end;  ///< the bench at the end of the prelude
  };

  /// A bench built the way run() builds its own.
  [[nodiscard]] std::unique_ptr<SweepTestbench> makeBench() const;

  /// The lock wait, the nominal count and the eqn (7) DC reference (none
  /// for DelayLinePm) on `bench`. Polls the attached stop token.
  [[nodiscard]] Prelude runPrelude(SweepTestbench& bench);

  /// The retry/relock point loop over this engine's frequencies on
  /// `bench`, which has run `prelude` (itself or through a fork). Fires
  /// onAttemptStart and onPointMeasured. The result's sim_time_s and
  /// bench counters count from `since`; its nominal and DC reference are
  /// the prelude's. After a failed prelude it measures nothing and labels
  /// every point with the prelude's status (see ResilientResponse).
  [[nodiscard]] ResilientResponse runPoints(SweepTestbench& bench, const Prelude& prelude,
                                            const Mark& since);

 private:
  pll::PllConfig config_;
  SweepOptions sweep_;
  ResilientSweepOptions resilience_;
  std::function<void(SweepTestbench&)> on_testbench_;
  std::function<void(std::size_t, int, SweepTestbench&)> on_attempt_start_;
  std::function<void(const MeasuredPoint&)> progress_;
  const StopSource* stop_ = nullptr;
  bool used_ = false;
};

}  // namespace pllbist::bist
