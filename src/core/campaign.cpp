#include "core/campaign.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "bist/telemetry.hpp"
#include "core/report_builder.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace pllbist::core {

namespace {

using K = Status::Kind;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Handles into the global registry for the campaign runtime's wall-clock
/// costs, read by the chaos bench. The campaign *report* never reads them
/// back (it is derived from per-point data so resume stays deterministic).
struct CampaignTelemetry {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Histogram journal_append_wall =
      reg.histogram("campaign.journal_append_wall_s", obs::MetricsRegistry::latencyBucketsSeconds());
  obs::Histogram resume_load_wall =
      reg.histogram("campaign.resume_load_wall_s", obs::MetricsRegistry::latencyBucketsSeconds());
};

CampaignTelemetry& campaignTelemetry() {
  static CampaignTelemetry* t = new CampaignTelemetry();  // handles into the leaked registry
  return *t;
}

}  // namespace

Status CampaignOptions::check() const {
  if (jobs < 0)
    return Status::makef(K::InvalidArgument, "CampaignOptions: jobs = %d, must be >= 0 (0 = auto)",
                         jobs);
  if (!(deadline_s >= 0.0))  // NaN too: it would pass `< 0` and then mean "unlimited"
    return Status::makef(K::InvalidArgument,
                         "CampaignOptions: deadline_s = %g, must be >= 0 (0 = unlimited)",
                         deadline_s);
  return resilience.check();
}

void CampaignOptions::validate() const { check().throwIfError(); }

Campaign::Campaign(const pll::PllConfig& config, bist::SweepOptions sweep, CampaignOptions options)
    : config_(config), sweep_(std::move(sweep)), options_(std::move(options)) {
  config_.validate();
  sweep_.check(config_).throwIfError();
  options_.check().throwIfError();
}

CampaignResult Campaign::run() {
  if (used_) throw std::logic_error("Campaign::run: campaign already used");
  used_ = true;
  PLLBIST_SPAN("campaign.run");
  const auto wall_start = Clock::now();

  CampaignResult out;
  const std::size_t n = sweep_.modulation_frequencies_hz.size();
  CheckpointHeader header;
  header.tool = options_.tool;
  header.device = options_.device;
  header.stimulus = bist::to_string(sweep_.stimulus);
  header.config_digest = obs::fnv1a64(canonicalConfigString(config_, sweep_));
  header.points_total = n;

  auto failClosed = [&](Status s) {
    out.status = std::move(s);
    out.merged.status = out.status;
    return out;
  };

  // Resume: load previously committed points, fail closed on any identity
  // or integrity violation. A torn final line is repaired (discarded +
  // truncated on the in-place path); its point simply re-runs.
  JournalLoadResult loaded;
  JournalWriter writer;
  bool writer_open = false;
  if (!options_.resume_path.empty()) {
    const auto load_start = Clock::now();
    if (options_.resume_path == options_.journal_path) {
      if (Status s = writer.resume(options_.journal_path, header, loaded); !s.ok())
        return failClosed(std::move(s));
      writer_open = true;
    } else {
      if (Status s = loadJournal(options_.resume_path, loaded); !s.ok())
        return failClosed(std::move(s));
      if (Status s = checkJournalHeader(loaded.header, header.config_digest, n); !s.ok())
        return failClosed(std::move(s));
    }
    campaignTelemetry().resume_load_wall.observe(secondsSince(load_start));
    out.torn_tail_repaired = loaded.torn_tail;
    out.points_resumed = static_cast<int>(loaded.records.size());
  }
  if (!options_.journal_path.empty() && !writer_open) {
    if (Status s = writer.create(options_.journal_path, header); !s.ok())
      return failClosed(std::move(s));
    writer_open = true;
    // Resumed from a different file: re-commit the inherited records so
    // the target journal alone carries every committed point exactly once.
    for (const CheckpointRecord& rec : loaded.records)
      if (Status s = writer.append(rec); !s.ok()) return failClosed(std::move(s));
  }

  // The points run on the farm; resumed records are preloaded into it, and
  // the journal append is its per-point sink.
  bist::ParallelSweepOptions farm_options;
  farm_options.jobs = options_.jobs;
  farm_options.resilience = options_.resilience;
  bist::ParallelSweep farm(config_, sweep_, farm_options);
  farm.chainStop(&stop_);
  for (CheckpointRecord& rec : loaded.records) farm.preload(rec.index, std::move(rec.result));
  if (on_point_testbench_) farm.onPointTestbench(on_point_testbench_);
  if (progress_) farm.onPointMeasured(progress_);
  Status journal_error;  // written by the sink, read after farm.run()
  farm.onPointResult([&](std::size_t index, const bist::ResilientResponse& r) {
    ++out.points_executed;
    if (!writer_open) return Status();
    const auto append_start = Clock::now();
    journal_error = writer.append({index, r});
    if (!journal_error.ok()) {
      // Durability was requested and is gone: the farm stops burning
      // budget on points that could not be checkpointed.
      writer.close();
      return journal_error;
    }
    campaignTelemetry().journal_append_wall.observe(secondsSince(append_start));
    return Status();
  });

  // The deadline is the stop token's own: the engines' polls trip it, so
  // no thread waits for it. A journal that already holds every point sets
  // none, because the replay still simulates the shared prelude.
  const bool deadline_set = options_.deadline_s > 0.0 && loaded.records.size() < n;
  if (deadline_set) stop_.stopAt(deadlineAfter(wall_start, options_.deadline_s));

  out.merged = farm.run();
  writer.close();

  out.deadline_hit = deadline_set && stop_.deadlineReached();
  out.stop_requested = stop_.stopRequested();
  bist::ResilientResponse& m = out.merged;
  // The deadline is what tripped the stop token: say so on every point it
  // cancelled and on the campaign, unless the journal failed first.
  if (out.deadline_hit) {
    PLLBIST_INSTANT("campaign.deadline");
    for (bist::MeasuredPoint& p : m.response.points)
      if (p.status.kind() == K::Cancelled)
        p.status = Status::makef(K::DeadlineExceeded, "campaign deadline %g s exceeded; %s",
                                 options_.deadline_s, p.status.context().c_str());
    if (journal_error.ok())
      m.status = Status::makef(K::DeadlineExceeded,
                               "campaign deadline %g s exceeded; %d of %zu points completed",
                               options_.deadline_s, m.report.usable(), n);
  }
  m.report.wall_time_s = secondsSince(wall_start);
  out.status = m.status;
  // The metrics block comes from the merged run alone, never the global
  // registry, so a resumed campaign reproduces it byte for byte.
  obs::MetricsSnapshot metrics;
  metrics.counters = bist::runCounters(m);
  out.report = buildRunReport(options_.tool, options_.device, config_, sweep_, options_.jobs, m,
                              std::move(metrics));
  return out;
}

}  // namespace pllbist::core
