#include "bist/resilient_sweep.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>

#include "bist/telemetry.hpp"
#include "bist/testbench.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/circuit.hpp"
#include "sim/fault_injector.hpp"

namespace pllbist::bist {

namespace {
SweepTelemetry& telemetry() { return sweepTelemetry(); }
}  // namespace

Status ResilientSweepOptions::check() const {
  using K = Status::Kind;
  if (max_attempts < 1)
    return Status::makef(K::InvalidArgument, "ResilientSweepOptions: max_attempts = %d, must be "
                         ">= 1", max_attempts);
  if (settle_backoff < 1.0)
    return Status::makef(K::InvalidArgument,
                         "ResilientSweepOptions: settle_backoff = %g, must be >= 1", settle_backoff);
  if (gate_backoff < 1.0)
    return Status::makef(K::InvalidArgument,
                         "ResilientSweepOptions: gate_backoff = %g, must be >= 1", gate_backoff);
  if (relock_grace_periods < 0.0)
    return Status::makef(K::InvalidArgument,
                         "ResilientSweepOptions: relock_grace_periods = %g, must be >= 0",
                         relock_grace_periods);
  if (relock_wait_periods <= 0.0)
    return Status::makef(K::InvalidArgument,
                         "ResilientSweepOptions: relock_wait_periods = %g, must be positive",
                         relock_wait_periods);
  if (lock_threshold_s < 0.0)
    return Status::makef(K::InvalidArgument,
                         "ResilientSweepOptions: lock_threshold_s = %g, must be >= 0",
                         lock_threshold_s);
  if (lock_cycles < 1)
    return Status::makef(K::InvalidArgument, "ResilientSweepOptions: lock_cycles = %d, must be "
                         ">= 1", lock_cycles);
  if (point_budget_s < 0.0)
    return Status::makef(K::InvalidArgument,
                         "ResilientSweepOptions: point_budget_s = %g, must be >= 0 (0 = unlimited)",
                         point_budget_s);
  if (relock_breaker < 0)
    return Status::makef(K::InvalidArgument,
                         "ResilientSweepOptions: relock_breaker = %d, must be >= 0 (0 = disabled)",
                         relock_breaker);
  return Status();
}

void ResilientSweepOptions::validate() const { check().throwIfError(); }

std::string SweepQualityReport::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%d points: %d ok, %d retried, %d degraded, %d dropped; %d attempts, "
                "%d relock%s (%d failed); %.3g s simulated in %.3g s wall",
                points_total, ok, retried, degraded, dropped, attempts_total, relocks,
                relocks == 1 ? "" : "s", relock_failures, sim_time_s, wall_time_s);
  return buf;
}

void SweepQualityReport::count(const MeasuredPoint& p) {
  ++points_total;
  attempts_total += p.attempts;
  switch (p.quality) {
    case PointQuality::Ok: ++ok; break;
    case PointQuality::Retried: ++retried; break;
    case PointQuality::Degraded: ++degraded; break;
    case PointQuality::Dropped: ++dropped; break;
  }
}

void appendDroppedPoint(ResilientResponse& out, double modulation_hz, Status status) {
  MeasuredPoint p;
  p.modulation_hz = modulation_hz;
  p.timed_out = true;
  p.quality = PointQuality::Dropped;
  p.attempts = 0;
  p.status = std::move(status);
  TestSequencer::PointResult raw;
  raw.modulation_hz = modulation_hz;
  raw.timed_out = true;
  raw.status = p.status;
  out.report.count(p);
  out.response.points.push_back(std::move(p));
  out.response.raw.push_back(std::move(raw));
}

Status RelockBreaker::skipStatus(std::size_t index, double modulation_hz) const {
  return Status::makef(Status::Kind::RelockFailed,
                       "point %zu (fm = %g Hz): relock circuit breaker open after %d consecutive "
                       "relock-failed points; point not attempted",
                       index, modulation_hz, limit_);
}

namespace {

TestSequencer::Options escalated(const TestSequencer::Options& base,
                                 const ResilientSweepOptions& r, int attempt) {
  TestSequencer::Options opt = base;
  const double f = std::pow(r.settle_backoff, attempt);
  opt.settle_periods = static_cast<int>(std::ceil(base.settle_periods * f));
  opt.timeout_periods = base.timeout_periods * f;
  // The integer ceil on settle can nudge the settle+average floor past the
  // scaled timeout for near-degenerate bases; keep the watchdog valid.
  opt.timeout_periods = std::max(
      opt.timeout_periods, static_cast<double>(opt.settle_periods + base.average_periods) + 1.0);
  opt.freq_gate_s = base.freq_gate_s * std::pow(r.gate_backoff, attempt);
  return opt;
}

}  // namespace

ResilientSweep::ResilientSweep(const pll::PllConfig& config, SweepOptions sweep,
                               ResilientSweepOptions resilience)
    : config_(config), sweep_(std::move(sweep)), resilience_(std::move(resilience)) {
  config_.validate();
  sweep_.check(config_).throwIfError();
  resilience_.check().throwIfError();
}

ResilientResponse ResilientSweep::run() {
  if (used_) throw std::logic_error("ResilientSweep::run: engine already used");
  used_ = true;
  PLLBIST_SPAN("sweep.run");
  const auto wall_start = std::chrono::steady_clock::now();

  const auto bench_ptr = std::make_unique<SweepTestbench>(
      config_, sweep_, resilience_.lock_threshold_s, resilience_.lock_cycles);
  SweepTestbench& bench = *bench_ptr;
  if (on_testbench_) on_testbench_(bench);
  sim::Circuit& c = bench.circuit();
  TestSequencer& seq = bench.sequencer();
  pll::LockDetector& lock = bench.lockDetector();
  const double fn_hz = radPerSecToHz(config_.secondOrder().omega_n_rad_per_s);

  ResilientResponse out;
  // stamp runs exactly once per exit path, so it also re-homes the bench's
  // kernel/fault counters onto the metrics registry exactly once. It also
  // captures the same counters into out.bench, the per-engine (and thus
  // deterministic) view the campaign journal records per point.
  auto stamp = [&] {
    out.report.sim_time_s = c.now();
    out.report.wall_time_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
    out.bench.events_processed = c.processedEventCount();
    out.bench.events_delivered = c.deliveredEventCount();
    out.bench.events_dropped = c.droppedEventCount();
    out.bench.events_delayed = c.delayedEventCount();
    out.bench.events_swallowed = c.swallowedEventCount();
    if (const sim::FaultInjector* injector = bench.installedFaultInjector()) {
      const sim::FaultInjector::Stats& s = injector->stats();
      out.bench.fault_benches = 1;
      out.bench.faults_considered = s.considered;
      out.bench.faults_dropped = s.dropped;
      out.bench.faults_delayed = s.delayed;
      out.bench.faults_glitches = s.glitches;
    }
    publishBenchCounters(bench);
  };

  // Cooperative interruption: the stop token and the per-point wall budget
  // are polled every kInterruptStride kernel steps (and between sim-time
  // slices of the blocking waits), so a stop or an expired budget takes
  // effect within a bounded number of events — never at the mercy of a
  // wedged loop.
  enum class StepOutcome { Done, Deadline, Stall, Stopped, OverBudget };
  constexpr int kInterruptStride = 2048;
  constexpr auto kNoWallDeadline = std::chrono::steady_clock::time_point::max();
  std::chrono::steady_clock::time_point point_wall_deadline = kNoWallDeadline;
  auto interrupted = [&]() -> StepOutcome {
    if (stop_ != nullptr && stop_->stopRequested()) return StepOutcome::Stopped;
    if (point_wall_deadline != kNoWallDeadline &&
        std::chrono::steady_clock::now() >= point_wall_deadline)
      return StepOutcome::OverBudget;
    return StepOutcome::Done;
  };
  // Step until `done()`, a sim deadline, an interruption, or a dry queue.
  // The predicate is a template parameter (generic lambda), not a
  // std::function: this is the per-event loop.
  auto stepUntil = [&](auto done, double deadline_s) {
    int countdown = kInterruptStride;
    while (!done()) {
      if (c.now() >= deadline_s) return StepOutcome::Deadline;
      if (--countdown <= 0) {
        countdown = kInterruptStride;
        if (const StepOutcome o = interrupted(); o != StepOutcome::Done) return o;
      }
      if (!c.step()) return StepOutcome::Stall;
    }
    return StepOutcome::Done;
  };
  auto locked = [&] { return lock.isLocked(); };
  // Stop-aware replacement for c.run(t_end): advance in bounded sim-time
  // slices so an interruption takes effect mid-wait, not at its end.
  auto advanceTo = [&](double t_end) {
    const double slice = std::max((t_end - c.now()) / 64.0, 1e-12);
    while (c.now() < t_end) {
      if (const StepOutcome o = interrupted(); o != StepOutcome::Done) return o;
      c.run(std::min(c.now() + slice, t_end));
    }
    return StepOutcome::Done;
  };
  constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

  const std::vector<double>& freqs = sweep_.modulation_frequencies_hz;
  // Record an unattempted point (stop or open breaker): Dropped, zero
  // attempts, the given status. Keeps points_total == requested count on
  // every exit path, so partial results are never silently truncated.
  auto skipPoint = [&](std::size_t i, Status status) {
    appendDroppedPoint(out, freqs[i], std::move(status));
    telemetry().points_dropped.increment();
    if (progress_) progress_(out.response.points.back());
  };
  auto cancelAllFrom = [&](std::size_t first, const char* where) {
    for (std::size_t i = first; i < freqs.size(); ++i)
      skipPoint(i, Status::makef(Status::Kind::Cancelled,
                                 "point %zu (fm = %g Hz): stop requested %s", i, freqs[i], where));
    if (out.status.ok())
      out.status = Status::makef(Status::Kind::Cancelled,
                                 "stop requested at t = %g s; %zu of %zu points completed", c.now(),
                                 first, freqs.size());
  };

  // Initial acquisition, nominal carrier, and the eqn (7) DC reference.
  // These are fatal if they stall (nothing downstream is measurable), but a
  // dead loop merely yields a meaningless nominal — the per-point machinery
  // below still runs and labels every point.
  if (advanceTo(sweep_.lock_wait_s) == StepOutcome::Stopped) {
    cancelAllFrom(0, "during the initial lock wait");
    stamp();
    return out;
  }

  bool nominal_done = false;
  seq.measureNominal([&](double hz) {
    out.response.nominal_vco_hz = hz;
    nominal_done = true;
  });
  switch (stepUntil([&] { return nominal_done; }, kNoDeadline)) {
    case StepOutcome::Stall:
      out.status = Status::makef(Status::Kind::SimulationStall,
                                 "event queue ran dry at t = %g s during the nominal count", c.now());
      telemetry().stalls.increment();
      stamp();
      return out;
    case StepOutcome::Stopped:
      cancelAllFrom(0, "during the nominal count");
      stamp();
      return out;
    default: break;
  }

  if (sweep_.stimulus != StimulusKind::DelayLinePm) {
    bool ref_done = false;
    seq.measureStaticReference(sweep_.static_settle_s, [&](double hz) {
      out.response.static_reference_deviation_hz = hz - out.response.nominal_vco_hz;
      ref_done = true;
    });
    switch (stepUntil([&] { return ref_done; }, kNoDeadline)) {
      case StepOutcome::Stall:
        out.status =
            Status::makef(Status::Kind::SimulationStall,
                          "event queue ran dry at t = %g s during the DC reference", c.now());
        telemetry().stalls.increment();
        stamp();
        return out;
      case StepOutcome::Stopped:
        cancelAllFrom(0, "during the DC reference");
        stamp();
        return out;
      default: break;
    }
  }

  const TestSequencer::Options base = seq.options();
  const double relock_wait_s = resilience_.relock_wait_periods / fn_hz;
  RelockBreaker breaker(resilience_.relock_breaker);
  bool cancelled = false;

  for (std::size_t i = 0; i < freqs.size(); ++i) {
    const double fm = freqs[i];
    if (!cancelled && stop_ != nullptr && stop_->stopRequested()) cancelled = true;
    if (cancelled) {
      skipPoint(i, Status::makef(Status::Kind::Cancelled,
                                 "point %zu (fm = %g Hz): stop requested before measurement", i, fm));
      continue;
    }
    if (breaker.open()) {
      skipPoint(i, breaker.skipStatus(i, fm));
      continue;
    }
    obs::ScopedSpan point_span("point.measure");
    const auto point_start = std::chrono::steady_clock::now();
    if (resilience_.point_budget_s > 0.0)
      point_wall_deadline =
          point_start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(resilience_.point_budget_s));
    MeasuredPoint p;
    p.modulation_hz = fm;
    TestSequencer::PointResult last;
    bool measured = false;
    bool relocked = false;
    bool relock_failed = false;
    bool fatal_stall = false;
    bool point_cancelled = false;
    bool over_budget = false;
    int attempts_used = 0;

    for (int attempt = 0; attempt < resilience_.max_attempts; ++attempt) {
      obs::ScopedSpan attempt_span("point.attempt");
      if (attempt > 0) PLLBIST_INSTANT("bist.retry");
      seq.setOptions(escalated(base, resilience_, attempt));
      if (on_attempt_start_) on_attempt_start_(i, attempt, bench);
      ++out.report.attempts_total;
      telemetry().attempts.increment();
      attempts_used = attempt + 1;

      bool done = false;
      seq.measurePoint(fm, [&](TestSequencer::PointResult r) {
        last = std::move(r);
        done = true;
      });
      const StepOutcome measure = stepUntil([&] { return done; }, kNoDeadline);
      if (measure == StepOutcome::Stall) {
        last.timed_out = true;
        last.status = Status::makef(Status::Kind::SimulationStall,
                                    "event queue ran dry at t = %g s measuring fm = %g Hz", c.now(),
                                    fm);
        fatal_stall = true;
        break;
      }
      if (measure == StepOutcome::Stopped) {
        point_cancelled = true;
        break;
      }
      if (measure == StepOutcome::OverBudget) {
        over_budget = true;
        break;
      }
      if (!last.timed_out) {
        measured = true;
        break;
      }

      // Failed attempt: park the stimulus and make sure the loop is still
      // alive before burning another attempt. The lock detector is reset
      // because modulation legitimately widens PFD pulses — only a loop
      // that stays unlocked past the grace window has actually lost lock.
      bench.stopStimulus();
      lock.reset();
      const StepOutcome grace =
          stepUntil(locked, c.now() + resilience_.relock_grace_periods / fn_hz);
      if (grace == StepOutcome::Stall) {
        fatal_stall = true;
        break;
      }
      if (grace == StepOutcome::Stopped) {
        point_cancelled = true;
        break;
      }
      if (grace == StepOutcome::OverBudget) {
        over_budget = true;
        break;
      }
      if (grace == StepOutcome::Deadline) {
        // Declared lock loss: bounded relock-and-resume.
        const StepOutcome relock = stepUntil(locked, c.now() + relock_wait_s);
        if (relock == StepOutcome::Stall) {
          fatal_stall = true;
          break;
        }
        if (relock == StepOutcome::Stopped) {
          point_cancelled = true;
          break;
        }
        if (relock == StepOutcome::OverBudget) {
          over_budget = true;
          break;
        }
        if (relock == StepOutcome::Done) {
          ++out.report.relocks;
          telemetry().relocks.increment();
          PLLBIST_INSTANT("bist.relock");
          relocked = true;
        } else {
          ++out.report.relock_failures;
          telemetry().relock_failures.increment();
          PLLBIST_INSTANT("bist.relock_failed");
          relock_failed = true;
          break;  // further attempts are futile on an unlocked loop
        }
      }
    }
    point_wall_deadline = kNoWallDeadline;

    p.attempts = attempts_used;
    if (measured) {
      p.deviation_hz = last.held_frequency_hz - out.response.nominal_vco_hz;
      p.phase_deg = last.phase_deg;
      p.timed_out = false;
      if (relocked || attempts_used > 2) {
        p.quality = PointQuality::Degraded;
        ++out.report.degraded;
        telemetry().points_degraded.increment();
      } else if (attempts_used == 2) {
        p.quality = PointQuality::Retried;
        ++out.report.retried;
        telemetry().points_retried.increment();
      } else {
        p.quality = PointQuality::Ok;
        ++out.report.ok;
        telemetry().points_ok.increment();
      }
      if (sweep_.stimulus == StimulusKind::DelayLinePm) {
        p.unity_gain_deviation_hz =
            bench.pmThetaDevRad() * fm * static_cast<double>(config_.divider_n);
      }
    } else {
      p.timed_out = true;
      p.quality = PointQuality::Dropped;
      ++out.report.dropped;
      telemetry().points_dropped.increment();
      if (point_cancelled) {
        cancelled = true;
        p.status = Status::makef(Status::Kind::Cancelled,
                                 "point %zu (fm = %g Hz): stop requested at t = %g s "
                                 "mid-measurement (attempt %d abandoned)",
                                 i, fm, c.now(), attempts_used);
      } else if (over_budget) {
        p.status = Status::makef(Status::Kind::DeadlineExceeded,
                                 "point %zu (fm = %g Hz): wall budget %g s exceeded on attempt %d",
                                 i, fm, resilience_.point_budget_s, attempts_used);
      } else if (relock_failed) {
        p.status = Status::makef(
            Status::Kind::RelockFailed,
            "point %zu (fm = %g Hz): loop failed to re-lock within %g s after a failed attempt; "
            "last failure: %s",
            i, fm, relock_wait_s, last.status.toString().c_str());
      } else if (fatal_stall) {
        p.status = last.status;
      } else {
        p.status = Status::makef(Status::Kind::RetryExhausted,
                                 "point %zu (fm = %g Hz): all %d attempts failed; last failure: %s",
                                 i, fm, attempts_used, last.status.toString().c_str());
      }
    }
    p.wall_time_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - point_start).count();
    telemetry().point_wall.observe(p.wall_time_s);
    ++out.report.points_total;
    breaker.record(p);
    out.response.points.push_back(p);
    out.response.raw.push_back(std::move(last));
    if (progress_) progress_(out.response.points.back());

    if (fatal_stall) {
      out.status = out.response.points.back().status;
      telemetry().stalls.increment();
      break;
    }
  }

  if (cancelled && out.status.ok())
    out.status =
        Status::makef(Status::Kind::Cancelled, "stop requested at t = %g s; %d of %zu points "
                      "measured", c.now(), out.report.usable(), freqs.size());
  out.breaker_open = breaker.open();
  stamp();
  return out;
}

}  // namespace pllbist::bist
