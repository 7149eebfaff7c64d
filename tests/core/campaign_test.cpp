// Chaos suite for the crash-tolerant campaign runtime: equivalence with
// the plain farm, in-process stop/resume, a real fork + SIGKILL crash
// (including a tail torn mid-record), deadline supervision, the relock
// circuit breaker, and the exactly-once journal accounting each of those
// rests on. Registered under the `chaos` ctest label.

#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "bist/parallel_sweep.hpp"
#include "bist/testbench.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "pll/faults.hpp"
#include "support/stall.hpp"
#include "support/test_configs.hpp"

namespace pllbist::core {
namespace {

using bist::MeasuredPoint;
using bist::PointQuality;
using bist::ResilientResponse;
using bist::StimulusKind;
using pllbist::testing::fastSweepOptions;
using pllbist::testing::fastTestConfig;

// Per process: ctest runs this binary twice at once (the per-test entries
// and campaign_single_core), and a shared journal path would race.
std::string tempPath(const char* name) {
  return ::testing::TempDir() + "pllbist_campaign_" + std::to_string(getpid()) + "_" + name +
         ".jsonl";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Canonical timing-free serialisation — the byte-identity yardstick.
std::string canonical(const obs::RunReport& report) {
  obs::JsonValue doc;
  const Status parsed = obs::parseJson(report.toJson(), doc);
  EXPECT_TRUE(parsed.ok()) << parsed.toString();
  obs::stripTimingFields(doc);
  return doc.dump();
}

void expectPointsBitIdentical(const ResilientResponse& a, const ResilientResponse& b) {
  ASSERT_EQ(a.response.points.size(), b.response.points.size());
  for (std::size_t i = 0; i < a.response.points.size(); ++i) {
    const MeasuredPoint& pa = a.response.points[i];
    const MeasuredPoint& pb = b.response.points[i];
    EXPECT_EQ(pa.modulation_hz, pb.modulation_hz) << "point " << i;
    EXPECT_EQ(pa.deviation_hz, pb.deviation_hz) << "point " << i;
    EXPECT_EQ(pa.phase_deg, pb.phase_deg) << "point " << i;
    EXPECT_EQ(pa.quality, pb.quality) << "point " << i;
    EXPECT_EQ(pa.attempts, pb.attempts) << "point " << i;
    EXPECT_EQ(pa.status.kind(), pb.status.kind()) << "point " << i;
  }
  EXPECT_EQ(a.response.nominal_vco_hz, b.response.nominal_vco_hz);
  EXPECT_EQ(a.response.static_reference_deviation_hz, b.response.static_reference_deviation_hz);
}

TEST(Campaign, MatchesParallelSweepBitExactly) {
  const bist::SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 6);
  bist::ParallelSweep farm(fastTestConfig(), sweep, {});
  const ResilientResponse reference = farm.run();

  CampaignOptions copt;
  Campaign campaign(fastTestConfig(), sweep, copt);
  const CampaignResult result = campaign.run();
  EXPECT_TRUE(result.status.ok()) << result.status.toString();
  EXPECT_EQ(result.points_executed, 6);
  EXPECT_EQ(result.points_resumed, 0);
  expectPointsBitIdentical(result.merged, reference);
  EXPECT_EQ(result.merged.report.points_total, reference.report.points_total);
  EXPECT_EQ(result.merged.report.ok, reference.report.ok);
  EXPECT_EQ(result.merged.report.attempts_total, reference.report.attempts_total);
  EXPECT_EQ(result.merged.bench.events_processed, reference.bench.events_processed);
}

TEST(Campaign, InProcessStopThenResumeReproducesUninterruptedReport) {
  const bist::SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 6);
  const std::string journal = tempPath("stop_resume");

  // Uninterrupted reference (its own journal file, same jobs).
  CampaignOptions ref_opt;
  ref_opt.journal_path = tempPath("stop_resume_ref");
  Campaign reference(fastTestConfig(), sweep, ref_opt);
  const CampaignResult ref = reference.run();
  ASSERT_TRUE(ref.status.ok()) << ref.status.toString();

  // First invocation: stop after the third committed point.
  CampaignOptions first_opt;
  first_opt.journal_path = journal;
  Campaign first(fastTestConfig(), sweep, first_opt);
  int commits = 0;
  first.onPointMeasured([&](std::size_t, const MeasuredPoint&) {
    if (++commits == 3) first.requestStop();
  });
  const CampaignResult partial = first.run();
  EXPECT_EQ(partial.status.kind(), Status::Kind::Cancelled) << partial.status.toString();
  EXPECT_TRUE(partial.stop_requested);
  EXPECT_EQ(partial.points_executed, 3);  // jobs = 1: the stop lands between points
  // Every slot is still labelled in the partial result.
  EXPECT_EQ(partial.merged.report.points_total, 6);

  // Second invocation: resume in place, finish the rest.
  CampaignOptions resume_opt;
  resume_opt.journal_path = journal;
  resume_opt.resume_path = journal;
  Campaign second(fastTestConfig(), sweep, resume_opt);
  const CampaignResult resumed = second.run();
  EXPECT_TRUE(resumed.status.ok()) << resumed.status.toString();
  EXPECT_EQ(resumed.points_resumed, 3);
  EXPECT_EQ(resumed.points_executed, 3);  // exactly once: no point re-simulated
  EXPECT_FALSE(resumed.torn_tail_repaired);
  expectPointsBitIdentical(resumed.merged, ref.merged);
  EXPECT_EQ(canonical(resumed.report), canonical(ref.report));
  std::remove(journal.c_str());
  std::remove(ref_opt.journal_path.c_str());
}

/// A point whose queue runs dry ends its run with SimulationStall. Resumed
/// from the journal, the stalled point's record carries that run status
/// again, so the resumed campaign reports the stall as the uninterrupted
/// one does.
TEST(Campaign, ResumedStalledPointKeepsTheRunStatus) {
  const bist::SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 3);
  const auto stallPointOne = [](std::size_t i, bist::SweepTestbench& bench) {
    if (i == 1) pllbist::testing::drainQueue(bench.circuit());
  };
  CampaignOptions ref_opt;
  ref_opt.journal_path = tempPath("stall_ref");
  Campaign reference(fastTestConfig(), sweep, ref_opt);
  reference.onPointTestbench(stallPointOne);
  const CampaignResult ref = reference.run();
  ASSERT_EQ(ref.status.kind(), Status::Kind::SimulationStall) << ref.status.toString();
  ASSERT_EQ(ref.merged.response.points[1].status.kind(), Status::Kind::SimulationStall);

  // Stop once the stalled point is committed, then resume in place.
  const std::string journal = tempPath("stall_resume");
  CampaignOptions first_opt;
  first_opt.journal_path = journal;
  Campaign first(fastTestConfig(), sweep, first_opt);
  first.onPointTestbench(stallPointOne);
  first.onPointMeasured([&](std::size_t i, const MeasuredPoint&) {
    if (i == 1) first.requestStop();
  });
  EXPECT_EQ(first.run().points_executed, 2);
  CampaignOptions resume_opt;
  resume_opt.journal_path = journal;
  resume_opt.resume_path = journal;
  Campaign second(fastTestConfig(), sweep, resume_opt);
  second.onPointTestbench(stallPointOne);
  const CampaignResult resumed = second.run();
  EXPECT_EQ(resumed.points_resumed, 2);
  EXPECT_EQ(resumed.points_executed, 1);
  EXPECT_EQ(resumed.status.kind(), ref.status.kind()) << resumed.status.toString();
  EXPECT_EQ(resumed.status.context(), ref.status.context());
  expectPointsBitIdentical(resumed.merged, ref.merged);
  EXPECT_EQ(canonical(resumed.report), canonical(ref.report));
  std::remove(journal.c_str());
  std::remove(ref_opt.journal_path.c_str());
}

/// The headline chaos test: a child process is SIGKILLed mid-campaign —
/// once cleanly between records and once with the journal tail torn
/// mid-record — and resume must reproduce the uninterrupted report
/// byte-for-byte while re-simulating only the uncommitted points.
TEST(Campaign, SigkillMidCampaignResumesByteIdenticalAndExactlyOnce) {
  const bist::SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 6);
  const std::string journal = tempPath("sigkill");

  CampaignOptions ref_opt;
  ref_opt.journal_path = tempPath("sigkill_ref");
  Campaign reference(fastTestConfig(), sweep, ref_opt);
  const CampaignResult ref = reference.run();
  ASSERT_TRUE(ref.status.ok()) << ref.status.toString();

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // In the child: run the same campaign and die -9 the instant the third
    // record is durable (onPointMeasured fires after the journal fsync).
    CampaignOptions opt;
    opt.journal_path = journal;
    Campaign doomed(fastTestConfig(), sweep, opt);
    int commits = 0;
    doomed.onPointMeasured([&](std::size_t, const MeasuredPoint&) {
      if (++commits == 3) (void)::kill(::getpid(), SIGKILL);
    });
    (void)doomed.run();
    ::_exit(97);  // unreachable if the kill landed
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus)) << "child exited " << WEXITSTATUS(wstatus);
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  // Part 1: clean kill between records. The journal holds exactly the
  // three committed points; resume re-runs exactly the other three.
  {
    CampaignOptions opt;
    opt.journal_path = journal;
    opt.resume_path = journal;
    Campaign resumeRun(fastTestConfig(), sweep, opt);
    const CampaignResult resumed = resumeRun.run();
    EXPECT_TRUE(resumed.status.ok()) << resumed.status.toString();
    EXPECT_EQ(resumed.points_resumed, 3);
    EXPECT_EQ(resumed.points_executed, 3);
    EXPECT_FALSE(resumed.torn_tail_repaired);
    expectPointsBitIdentical(resumed.merged, ref.merged);
    EXPECT_EQ(canonical(resumed.report), canonical(ref.report));
    // Exactly-once on disk too: six unique records, one per point.
    JournalLoadResult all;
    ASSERT_TRUE(loadJournal(journal, all).ok());
    EXPECT_EQ(all.records.size(), 6u);
    EXPECT_EQ(all.duplicates_ignored, 0u);
  }

  // Part 2: rewind the journal to the post-kill state and tear the final
  // record in half — the crash-mid-append case. The torn point is not
  // committed, so it re-simulates: 2 resumed, 4 executed.
  {
    const std::string text = slurp(journal);
    JournalLoadResult full;
    ASSERT_TRUE(parseJournal(text, full).ok());
    // Reconstruct header + records 0-terminal..: keep first 3 lines after
    // the header, then half of the third record's line.
    std::size_t pos = 0;
    for (int line = 0; line < 3; ++line) pos = text.find('\n', pos) + 1;
    const std::size_t line3_end = text.find('\n', pos);
    std::ofstream out(journal, std::ios::trunc);
    out << text.substr(0, pos + (line3_end - pos) / 2);
    out.close();

    CampaignOptions opt;
    opt.journal_path = journal;
    opt.resume_path = journal;
    Campaign resumeRun(fastTestConfig(), sweep, opt);
    const CampaignResult resumed = resumeRun.run();
    EXPECT_TRUE(resumed.status.ok()) << resumed.status.toString();
    EXPECT_TRUE(resumed.torn_tail_repaired);
    EXPECT_EQ(resumed.points_resumed, 2);
    EXPECT_EQ(resumed.points_executed, 4);
    expectPointsBitIdentical(resumed.merged, ref.merged);
    EXPECT_EQ(canonical(resumed.report), canonical(ref.report));
    JournalLoadResult all;
    ASSERT_TRUE(loadJournal(journal, all).ok());
    EXPECT_FALSE(all.torn_tail);  // repair truncated the garbage
    EXPECT_EQ(all.records.size(), 6u);
  }
  std::remove(journal.c_str());
  std::remove(ref_opt.journal_path.c_str());
}

TEST(Campaign, CancelledPointsAreNeverCommitted) {
  const bist::SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 5);
  const std::string journal = tempPath("cancelled");
  CampaignOptions opt;
  opt.journal_path = journal;
  Campaign campaign(fastTestConfig(), sweep, opt);
  campaign.onPointMeasured([&](std::size_t, const MeasuredPoint&) { campaign.requestStop(); });
  const CampaignResult result = campaign.run();
  EXPECT_EQ(result.status.kind(), Status::Kind::Cancelled);
  EXPECT_EQ(result.points_executed, 1);

  JournalLoadResult loaded;
  ASSERT_TRUE(loadJournal(journal, loaded).ok());
  EXPECT_EQ(loaded.records.size(), 1u);  // only the completed point
  EXPECT_EQ(slurp(journal).find("cancelled"), std::string::npos);
  std::remove(journal.c_str());
}

TEST(Campaign, DeadlineTerminatesPromptlyAndLabelsEveryPoint) {
  const bist::SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 12);

  // Wall-clock behaviour on a loaded CI host is noisy: the in-situ
  // reference run and the bounded run can land on very different machine
  // states (under parallel sanitizer runs a slow reference followed by a
  // fast bounded run can finish all 12 points inside the deadline). So the
  // whole measure-then-bound pair retries, asserting hard only on the last
  // attempt; the label-accounting invariants are checked on whichever
  // attempt trips the deadline.
  constexpr int kAttempts = 4;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    const bool last = attempt == kAttempts - 1;

    // Measure the uninterrupted cost in-situ; the deadline is a quarter of
    // it, and the campaign must finish well before the uninterrupted cost.
    const auto t0 = std::chrono::steady_clock::now();
    {
      Campaign unbounded(fastTestConfig(), sweep, {});
      const CampaignResult full = unbounded.run();
      ASSERT_TRUE(full.status.ok()) << full.status.toString();
    }
    const double uninterrupted_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    CampaignOptions opt;
    opt.deadline_s = uninterrupted_s / 4.0;
    Campaign bounded(fastTestConfig(), sweep, opt);
    const auto t1 = std::chrono::steady_clock::now();
    const CampaignResult result = bounded.run();
    const double bounded_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t1).count();

    if (!last && (!result.deadline_hit || bounded_s >= 0.9 * uninterrupted_s)) continue;

    EXPECT_TRUE(result.deadline_hit);
    ASSERT_EQ(result.status.kind(), Status::Kind::DeadlineExceeded) << result.status.toString();
    EXPECT_LT(result.points_executed, 12);
    // Promptness: the deadline plus one point's drain, with margin — far
    // under the uninterrupted cost.
    EXPECT_LT(bounded_s, 0.9 * uninterrupted_s);
    // Every unfinished point carries the deadline label; the sum still
    // accounts for all 12 slots.
    const bist::SweepQualityReport& q = result.merged.report;
    EXPECT_EQ(q.points_total, 12);
    EXPECT_EQ(q.ok + q.retried + q.degraded + q.dropped, 12);
    int deadline_labelled = 0;
    for (const MeasuredPoint& p : result.merged.response.points)
      if (p.status.kind() == Status::Kind::DeadlineExceeded) ++deadline_labelled;
    EXPECT_EQ(deadline_labelled, 12 - result.points_executed);
    return;
  }
}

TEST(Campaign, PointBudgetDropsOverBudgetPointsWithoutHanging) {
  const bist::SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 4);
  const std::string journal = tempPath("point_budget");
  CampaignOptions opt;
  opt.journal_path = journal;
  opt.resilience.point_budget_s = 1e-4;  // far below a point's real cost
  opt.resilience.max_attempts = 1;
  Campaign campaign(fastTestConfig(), sweep, opt);
  const CampaignResult result = campaign.run();
  // Over-budget points are terminal (they would bust the budget again), so
  // they are journaled and the campaign itself completes.
  EXPECT_FALSE(result.deadline_hit);
  EXPECT_EQ(result.points_executed, 4);
  const bist::SweepQualityReport& q = result.merged.report;
  EXPECT_EQ(q.points_total, 4);
  EXPECT_GT(q.dropped, 0);
  for (const MeasuredPoint& p : result.merged.response.points) {
    if (p.quality == PointQuality::Dropped) {
      EXPECT_EQ(p.status.kind(), Status::Kind::DeadlineExceeded) << p.status.toString();
    }
  }
  JournalLoadResult loaded;
  ASSERT_TRUE(loadJournal(journal, loaded).ok());
  EXPECT_EQ(loaded.records.size(), 4u);
  std::remove(journal.c_str());
}

TEST(Campaign, RelockBreakerStopsBurningPointsOnADeadDevice) {
  // Catastrophic device (divider at 25 instead of 10): every attempted
  // point drops as a relock failure, so the breaker must open after two
  // and spare the rest.
  const pll::PllConfig sick =
      pll::applyFault(fastTestConfig(), {pll::FaultSpec::Kind::DividerWrongN, 25.0});
  bist::SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 5);
  CampaignOptions opt;
  opt.resilience.max_attempts = 2;
  opt.resilience.relock_wait_periods = 10.0;  // a railed loop never relocks
  opt.resilience.relock_breaker = 2;
  Campaign campaign(sick, sweep, opt);
  const CampaignResult result = campaign.run();
  EXPECT_TRUE(result.merged.breaker_open);
  EXPECT_EQ(result.points_executed, 2);  // jobs = 1: deterministic trip point
  const auto& points = result.merged.response.points;
  ASSERT_EQ(points.size(), 5u);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_EQ(points[i].status.kind(), Status::Kind::RelockFailed) << i;
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_EQ(points[i].status.kind(), Status::Kind::RelockFailed) << i;
    EXPECT_EQ(points[i].attempts, 0) << "breaker-skipped point " << i << " was simulated";
    EXPECT_NE(points[i].status.context().find("breaker"), std::string::npos) << i;
  }
}

/// The breaker decides in point-index order: the same five points, report
/// and kernel counters at jobs = 1 and jobs = 3, from the farm and the
/// campaign alike, and a stopped-then-resumed campaign reproduces the
/// uninterrupted report.
TEST(Campaign, RelockBreakerIsJobsInvariantAndSurvivesResume) {
  const pll::PllConfig sick =
      pll::applyFault(fastTestConfig(), {pll::FaultSpec::Kind::DividerWrongN, 25.0});
  const bist::SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 5);
  bist::ResilientSweepOptions resilience;
  resilience.max_attempts = 2;
  resilience.relock_wait_periods = 10.0;
  resilience.relock_breaker = 2;
  auto expectBreakerShape = [](const ResilientResponse& r, const char* what) {
    ASSERT_EQ(r.response.points.size(), 5u) << what;
    const int expected_attempts[] = {1, 1, 0, 0, 0};
    for (std::size_t i = 0; i < 5; ++i) {
      const MeasuredPoint& p = r.response.points[i];
      EXPECT_EQ(p.attempts, expected_attempts[i]) << what << " point " << i;
      EXPECT_EQ(p.status.kind(), Status::Kind::RelockFailed) << what << " point " << i;
      EXPECT_EQ(p.status.context().find("breaker") != std::string::npos, i >= 2)
          << what << " point " << i;
    }
    EXPECT_TRUE(r.breaker_open) << what;
  };
  auto expectCountersEqual = [](const ResilientResponse& a, const ResilientResponse& b) {
    EXPECT_EQ(a.report.points_total, b.report.points_total);
    EXPECT_EQ(a.report.dropped, b.report.dropped);
    EXPECT_EQ(a.report.attempts_total, b.report.attempts_total);
    EXPECT_EQ(a.report.relocks, b.report.relocks);
    EXPECT_EQ(a.report.relock_failures, b.report.relock_failures);
    EXPECT_EQ(a.report.sim_time_s, b.report.sim_time_s);
    EXPECT_EQ(a.bench.events_processed, b.bench.events_processed);
    EXPECT_EQ(a.bench.events_delivered, b.bench.events_delivered);
    EXPECT_EQ(a.bench.events_dropped, b.bench.events_dropped);
  };

  ResilientResponse serial;
  std::string reference_report;
  for (const int jobs : {1, 3}) {
    bist::ParallelSweepOptions popt;
    popt.jobs = jobs;
    popt.resilience = resilience;
    const ResilientResponse farmed = bist::ParallelSweep(sick, sweep, popt).run();
    expectBreakerShape(farmed, "farm");

    CampaignOptions opt;
    opt.jobs = jobs;
    opt.resilience = resilience;
    Campaign campaign(sick, sweep, opt);
    const CampaignResult result = campaign.run();
    expectBreakerShape(result.merged, "campaign");
    // The report's `jobs` field differs by design; keep the jobs = 1 one.
    if (jobs == 1) {
      serial = farmed;
      reference_report = canonical(result.report);
    }
    for (const ResilientResponse* r : {&farmed, &result.merged}) {
      expectPointsBitIdentical(*r, serial);
      expectCountersEqual(*r, serial);
    }
  }

  // Stop after point 0 or point 1 (jobs = 1), then resume in place.
  for (const std::size_t stop_after : {std::size_t{0}, std::size_t{1}}) {
    const std::string journal = tempPath("breaker_resume");
    CampaignOptions opt;
    opt.resilience = resilience;
    opt.journal_path = journal;
    {
      Campaign first(sick, sweep, opt);
      first.onPointMeasured([&](std::size_t index, const MeasuredPoint&) {
        if (index == stop_after) first.requestStop();
      });
      const CampaignResult partial = first.run();
      EXPECT_EQ(partial.points_executed, static_cast<int>(stop_after) + 1);
    }
    opt.resume_path = journal;
    Campaign second(sick, sweep, opt);
    const CampaignResult resumed = second.run();
    EXPECT_EQ(resumed.points_resumed, static_cast<int>(stop_after) + 1);
    EXPECT_EQ(resumed.points_executed, 1 - static_cast<int>(stop_after));
    expectBreakerShape(resumed.merged, "resumed");
    EXPECT_EQ(canonical(resumed.report), reference_report) << "stopped after " << stop_after;
    std::remove(journal.c_str());
  }
}

TEST(Campaign, ResumeWithMismatchedConfigFailsClosed) {
  const bist::SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 4);
  const std::string journal = tempPath("mismatch");
  {
    CampaignOptions opt;
    opt.journal_path = journal;
    Campaign campaign(fastTestConfig(), sweep, opt);
    ASSERT_TRUE(campaign.run().status.ok());
  }
  // Same point count, different stimulus depth: a different campaign.
  bist::SweepOptions other = sweep;
  other.deviation_hz *= 2.0;
  CampaignOptions opt;
  opt.resume_path = journal;
  Campaign campaign(fastTestConfig(), other, opt);
  const CampaignResult result = campaign.run();
  EXPECT_EQ(result.status.kind(), Status::Kind::InvalidArgument) << result.status.toString();
  EXPECT_EQ(result.points_executed, 0);  // fail closed: nothing simulated
  EXPECT_EQ(result.points_resumed, 0);
  std::remove(journal.c_str());
}

TEST(Campaign, ResumeIntoADifferentJournalCarriesRecordsForward) {
  const bist::SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 4);
  const std::string first_journal = tempPath("carry_src");
  const std::string second_journal = tempPath("carry_dst");
  {
    CampaignOptions opt;
    opt.journal_path = first_journal;
    Campaign campaign(fastTestConfig(), sweep, opt);
    int commits = 0;
    campaign.onPointMeasured([&](std::size_t, const MeasuredPoint&) {
      if (++commits == 2) campaign.requestStop();
    });
    (void)campaign.run();
  }
  CampaignOptions opt;
  opt.resume_path = first_journal;
  opt.journal_path = second_journal;
  Campaign campaign(fastTestConfig(), sweep, opt);
  const CampaignResult result = campaign.run();
  EXPECT_TRUE(result.status.ok()) << result.status.toString();
  EXPECT_EQ(result.points_resumed, 2);
  EXPECT_EQ(result.points_executed, 2);
  // The new journal alone now carries the whole campaign.
  JournalLoadResult loaded;
  ASSERT_TRUE(loadJournal(second_journal, loaded).ok());
  EXPECT_EQ(loaded.records.size(), 4u);
  std::remove(first_journal.c_str());
  std::remove(second_journal.c_str());
}

/// A journal that holds every point leaves only the shared prelude to run,
/// and the deadline does not apply to it: the replay reproduces the report
/// however short the deadline.
TEST(Campaign, ReplayOfACompleteJournalIgnoresAnExpiredDeadline) {
  const bist::SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 3);
  const std::string journal = tempPath("replay_deadline");
  CampaignOptions first_opt;
  first_opt.journal_path = journal;
  Campaign first(fastTestConfig(), sweep, first_opt);
  const CampaignResult full = first.run();
  ASSERT_TRUE(full.status.ok()) << full.status.toString();

  CampaignOptions replay_opt;
  replay_opt.resume_path = journal;
  replay_opt.deadline_s = 1e-9;
  Campaign replay(fastTestConfig(), sweep, replay_opt);
  const CampaignResult replayed = replay.run();
  EXPECT_TRUE(replayed.status.ok()) << replayed.status.toString();
  EXPECT_FALSE(replayed.deadline_hit);
  EXPECT_EQ(replayed.points_executed, 0);
  EXPECT_EQ(replayed.points_resumed, 3);
  EXPECT_EQ(canonical(replayed.report), canonical(full.report));
  std::remove(journal.c_str());
}

/// A deadline beyond the steady clock's range (here about 1e21 times it)
/// is no deadline: the campaign measures every point.
TEST(Campaign, DeadlineBeyondTheClockRangeNeverExpires) {
  CampaignOptions opt;
  opt.deadline_s = 1e30;
  Campaign campaign(fastTestConfig(), fastSweepOptions(StimulusKind::MultiToneFsk, 3), opt);
  const CampaignResult r = campaign.run();
  EXPECT_TRUE(r.status.ok()) << r.status.toString();
  EXPECT_FALSE(r.deadline_hit);
  EXPECT_EQ(r.merged.report.usable(), 3);
}

TEST(Campaign, RejectsInvalidOptions) {
  const bist::SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 2);
  CampaignOptions bad;
  bad.deadline_s = -1.0;
  EXPECT_THROW(Campaign(fastTestConfig(), sweep, bad), std::invalid_argument);
  bad = {};
  bad.jobs = -1;
  EXPECT_THROW(Campaign(fastTestConfig(), sweep, bad), std::invalid_argument);
  bad = {};
  bad.resilience.point_budget_s = -0.5;
  EXPECT_THROW(Campaign(fastTestConfig(), sweep, bad), std::invalid_argument);
  // run() is single use.
  Campaign once(fastTestConfig(), sweep, {});
  (void)once.run();
  EXPECT_THROW((void)once.run(), std::logic_error);
}

TEST(Campaign, ParallelJobsMatchSerialResult) {
  const bist::SweepOptions sweep = fastSweepOptions(StimulusKind::MultiToneFsk, 6);
  Campaign serial(fastTestConfig(), sweep, {});
  const CampaignResult a = serial.run();
  CampaignOptions opt;
  opt.jobs = 4;
  Campaign parallel(fastTestConfig(), sweep, opt);
  const CampaignResult b = parallel.run();
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  expectPointsBitIdentical(a.merged, b.merged);
}

}  // namespace
}  // namespace pllbist::core
