#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "bist/parallel_sweep.hpp"
#include "common/status.hpp"
#include "common/stop_token.hpp"
#include "core/journal.hpp"
#include "obs/report.hpp"
#include "pll/config.hpp"

namespace pllbist::core {

/// Policy knobs of the supervised campaign runtime.
struct CampaignOptions {
  /// Worker threads over the campaign's points. 0 = one per hardware
  /// thread; clamped to the number of points still pending.
  int jobs = 1;
  /// Retry/relock/degrade policy for every point's engine, including the
  /// per-point wall budget (resilience.point_budget_s) and the relock
  /// breaker (resilience.relock_breaker), which the farm decides in point
  /// index order.
  bist::ResilientSweepOptions resilience;
  /// Whole-campaign wall-clock budget, seconds; 0 disables, and one past
  /// the clock's range never expires. It becomes the campaign stop token's
  /// deadline; the campaign terminates within the engines' bounded drain,
  /// with every unfinished point recorded as Dropped/DeadlineExceeded.
  double deadline_s = 0.0;
  /// Write a checkpoint journal here ("" = none). With resume_path equal,
  /// the journal continues in place (torn tail repaired by truncation).
  std::string journal_path;
  /// Resume from this journal ("" = fresh campaign): config digest and
  /// campaign size must match or run() fails closed with InvalidArgument.
  std::string resume_path;
  std::string tool = "campaign";  ///< report/journal `tool` field
  std::string device = "custom";  ///< report/journal `device` field

  /// Structured check; every rejection names the offending field and value.
  [[nodiscard]] Status check() const;
  /// check().throwIfError() — kept for the exception-based API.
  void validate() const;
};

/// Outcome of a campaign run. `report` is built deterministically from the
/// merged per-point data alone (never the global metrics registry), which
/// is what makes a resumed campaign's report byte-identical (modulo
/// stripTimingFields) to an uninterrupted run's.
struct CampaignResult {
  bist::ResilientResponse merged;
  obs::RunReport report;
  Status status;           ///< == merged.status
  int points_executed = 0; ///< points simulated (and committed) this invocation
  int points_resumed = 0;  ///< points replayed from the resume journal
  bool deadline_hit = false;
  bool stop_requested = false;
  bool torn_tail_repaired = false;  ///< resume discarded a torn final line
};

/// Supervised campaign runtime: the bist::ParallelSweep farm plus a durable
/// write-ahead checkpoint journal (one fsync'd JSONL record per completed
/// point, appended by the farm's per-point sink), digest-verified resume
/// with exactly-once point accounting (journaled points are preloaded into
/// the farm, never re-run), and a wall-clock deadline on the farm's stop
/// token.
///
/// The farm runs one single-point ResilientSweep per ORIGINAL point index,
/// so per-point seeds (pointSeed) are identical whether a point runs in the
/// first invocation, a resumed one, or an uninterrupted run. That index
/// discipline is what makes resume reproduce the uninterrupted result
/// bit-exactly for the deterministic fields.
class Campaign {
 public:
  Campaign(const pll::PllConfig& config, bist::SweepOptions sweep, CampaignOptions options = {});

  /// Cooperative stop, callable from any thread. In-flight points drain as
  /// Dropped/Cancelled, the journal stays durable, and run() returns a
  /// fully-labelled partial result.
  void requestStop() { stop_.requestStop(); }

  /// Also honour `upstream` (e.g. globalStopSource() tripped by the
  /// SIGINT/SIGTERM handlers). Call before run().
  void chainStop(const StopSource* upstream) { stop_.chainTo(upstream); }

  /// Per-point bench hook, as ParallelSweep::onPointTestbench.
  void onPointTestbench(std::function<void(std::size_t, bist::SweepTestbench&)> cb) {
    on_point_testbench_ = std::move(cb);
  }

  /// Fired (serialised, possibly out of point order) after a point's
  /// classification lands — and, when journaling, after its record is
  /// durable on disk. A crash inside this callback therefore never loses
  /// the point it reports.
  void onPointMeasured(std::function<void(std::size_t, const bist::MeasuredPoint&)> cb) {
    progress_ = std::move(cb);
  }

  /// Run the campaign. May be called once per instance.
  CampaignResult run();

 private:
  pll::PllConfig config_;
  bist::SweepOptions sweep_;
  CampaignOptions options_;
  std::function<void(std::size_t, bist::SweepTestbench&)> on_point_testbench_;
  std::function<void(std::size_t, const bist::MeasuredPoint&)> progress_;
  StopSource stop_;
  bool used_ = false;
};

}  // namespace pllbist::core
