#include "bist/resilient_sweep.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bist/telemetry.hpp"
#include "bist/testbench.hpp"
#include "common/units.hpp"
#include "obs/tracer.hpp"
#include "sim/circuit.hpp"
#include "sim/fault_injector.hpp"

namespace pllbist::bist {

Status ResilientSweepOptions::check() const {
  using K = Status::Kind;
  if (max_attempts < 1)
    return Status::makef(K::InvalidArgument, "ResilientSweepOptions: max_attempts = %d, must be "
                         ">= 1", max_attempts);
  // Negated comparisons, so that NaN is refused too.
  if (!(settle_backoff >= 1.0))
    return Status::makef(K::InvalidArgument,
                         "ResilientSweepOptions: settle_backoff = %g, must be >= 1", settle_backoff);
  if (!(relock_wait_periods > 0.0))
    return Status::makef(K::InvalidArgument,
                         "ResilientSweepOptions: relock_wait_periods = %g, must be positive",
                         relock_wait_periods);
  if (!(point_budget_s >= 0.0))
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
  out.report.count(p);
  out.response.points.push_back(std::move(p));
}

Status RelockBreaker::skipStatus(std::size_t index, double modulation_hz) const {
  return Status::makef(Status::Kind::RelockFailed,
                       "point %zu (fm = %g Hz): relock circuit breaker open after %d consecutive "
                       "relock-failed points; point not attempted",
                       index, modulation_hz, limit_);
}

BenchStats BenchStats::of(const SweepTestbench& bench) {
  const sim::Circuit& c = bench.circuit();
  BenchStats s;
  s.events_processed = c.processedEventCount();
  s.events_delivered = c.deliveredEventCount();
  s.events_dropped = c.droppedEventCount();
  s.events_delayed = c.delayedEventCount();
  s.events_swallowed = c.swallowedEventCount();
  s.loop_pfd_writes = bench.pll().pfdWrites();
  s.loop_vco_stops = bench.pll().vcoStops();
  if (const sim::FaultInjector* injector = bench.installedFaultInjector()) {
    const sim::FaultInjector::Stats& f = injector->stats();
    s.fault_benches = 1;
    s.faults_considered = f.considered;
    s.faults_dropped = f.dropped;
    s.faults_delayed = f.delayed;
    s.faults_glitches = f.glitches;
  }
  return s;
}

namespace {

using Clock = std::chrono::steady_clock;

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
  return opt;
}

/// After a failed attempt the stimulus is parked and the lock detector
/// reset; the loop gets this many natural periods of grace to report lock
/// before a lock *loss* is declared. Modulation legitimately widens PFD
/// pulses, so an unlocked reading right after stopping is not yet a loss.
constexpr double kRelockGracePeriods = 2.0;

enum class StepOutcome { Done, Deadline, Stall, Stopped, OverBudget };
constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

/// How an interrupted step ends its point; Ok when the step was not
/// interrupted (it finished or reached its sim deadline).
Status::Kind interruptedKind(StepOutcome o) {
  switch (o) {
    case StepOutcome::Stall: return Status::Kind::SimulationStall;
    case StepOutcome::Stopped: return Status::Kind::Cancelled;
    case StepOutcome::OverBudget: return Status::Kind::DeadlineExceeded;
    default: return Status::Kind::Ok;
  }
}

/// Cooperative interruption of one bench's circuit: the stop token and the
/// per-point wall budget are polled every kInterruptStride kernel steps
/// (and between sim-time slices of the blocking waits), so a stop or an
/// expired budget takes effect within a bounded number of events — never
/// at the mercy of a wedged loop.
class Stepper {
 public:
  Stepper(sim::Circuit& c, const StopSource* stop) : c_(c), stop_(stop) {}

  /// Budget the steps from now on to `budget_s` of wall time (0 = none).
  void startBudget(double budget_s) {
    wall_deadline_ = budget_s > 0.0 ? deadlineAfter(Clock::now(), budget_s) : kNoWallDeadline;
  }

  /// Step until `done()`, a sim deadline, an interruption, or a dry queue.
  /// The predicate is a template parameter (generic lambda), not a
  /// std::function: this is the per-event loop. Each step is limited to the
  /// deadline, so the loop's run-ahead stops where a step per instant would
  /// have seen the deadline pass.
  template <class Done>
  StepOutcome stepUntil(Done done, double deadline_s) {
    int countdown = kInterruptStride;
    while (!done()) {
      if (c_.now() >= deadline_s) return StepOutcome::Deadline;
      if (--countdown <= 0) {
        countdown = kInterruptStride;
        if (const StepOutcome o = interrupted(); o != StepOutcome::Done) return o;
      }
      if (!c_.step(deadline_s)) return StepOutcome::Stall;
    }
    return StepOutcome::Done;
  }

  /// Stop-aware replacement for c.run(t_end): advance in bounded sim-time
  /// slices so an interruption takes effect mid-wait, not at its end.
  StepOutcome advanceTo(double t_end) {
    const double slice = std::max((t_end - c_.now()) / 64.0, 1e-12);
    while (c_.now() < t_end) {
      if (const StepOutcome o = interrupted(); o != StepOutcome::Done) return o;
      c_.run(std::min(c_.now() + slice, t_end));
    }
    return StepOutcome::Done;
  }

 private:
  /// A step can cover many loop instants (the loop runs ahead to the next
  /// queued event), and a farm point is a few hundred steps.
  static constexpr int kInterruptStride = 16;
  static constexpr Clock::time_point kNoWallDeadline = Clock::time_point::max();

  StepOutcome interrupted() const {
    if (stop_ != nullptr && stop_->stopRequested()) return StepOutcome::Stopped;
    if (wall_deadline_ != kNoWallDeadline && Clock::now() >= wall_deadline_)
      return StepOutcome::OverBudget;
    return StepOutcome::Done;
  }

  sim::Circuit& c_;
  const StopSource* stop_;
  Clock::time_point wall_deadline_ = kNoWallDeadline;
};

/// Close a run's accounting: simulated time, wall time and bench counters
/// since `since`; then publish the finished run to the metrics registry.
void stamp(const SweepTestbench& bench, const ResilientSweep::Mark& since,
           Clock::time_point wall_start, ResilientResponse& out) {
  out.report.sim_time_s = bench.circuit().now() - since.sim_time_s;
  out.report.wall_time_s = std::chrono::duration<double>(Clock::now() - wall_start).count();
  out.bench = BenchStats::of(bench).since(since.bench);
  publishRun(out);
}

}  // namespace

ResilientSweep::ResilientSweep(const pll::PllConfig& config, SweepOptions sweep,
                               ResilientSweepOptions resilience)
    : config_(config), sweep_(std::move(sweep)), resilience_(std::move(resilience)) {
  config_.validate();
  sweep_.check(config_).throwIfError();
  resilience_.check().throwIfError();
}

std::unique_ptr<SweepTestbench> ResilientSweep::makeBench() const {
  return std::make_unique<SweepTestbench>(config_, sweep_);
}

ResilientResponse ResilientSweep::run() {
  if (used_) throw std::logic_error("ResilientSweep::run: engine already used");
  used_ = true;
  PLLBIST_SPAN("sweep.run");
  const auto wall_start = Clock::now();

  const std::unique_ptr<SweepTestbench> bench = makeBench();
  if (on_testbench_) on_testbench_(*bench);
  const Prelude prelude = runPrelude(*bench);
  ResilientResponse out = runPoints(*bench, prelude, Mark{});
  out.report.wall_time_s = std::chrono::duration<double>(Clock::now() - wall_start).count();
  return out;
}

ResilientSweep::Prelude ResilientSweep::runPrelude(SweepTestbench& bench) {
  PLLBIST_SPAN("sweep.prelude");
  sim::Circuit& c = bench.circuit();
  TestSequencer& seq = bench.sequencer();
  Stepper step(c, stop_);
  Prelude out;
  // Classify a prelude stage that did not finish; true when it did. These
  // are fatal (nothing downstream is measurable), but a dead loop merely
  // yields a meaningless nominal — the point loop still labels every point.
  auto finished = [&](StepOutcome o, const char* stage) {
    if (o == StepOutcome::Stall) {
      out.status = Status::makef(Status::Kind::SimulationStall,
                                 "event queue ran dry at t = %g s during %s", c.now(), stage);
    } else if (o == StepOutcome::Stopped) {
      out.status = Status::makef(Status::Kind::Cancelled, "during %s", stage);
    }
    return out.status.ok();
  };

  bool ok = finished(step.advanceTo(sweep_.lock_wait_s), "the initial lock wait");
  if (ok) {
    bool nominal_done = false;
    seq.measureNominal([&](double hz) {
      out.nominal_vco_hz = hz;
      nominal_done = true;
    });
    ok = finished(step.stepUntil([&] { return nominal_done; }, kNoDeadline), "the nominal count");
  }
  if (ok && sweep_.stimulus != StimulusKind::DelayLinePm) {
    bool ref_done = false;
    seq.measureStaticReference(sweep_.static_settle_s, [&](double hz) {
      out.static_reference_deviation_hz = hz - out.nominal_vco_hz;
      ref_done = true;
    });
    finished(step.stepUntil([&] { return ref_done; }, kNoDeadline), "the DC reference");
  }
  out.end = Mark{c.now(), BenchStats::of(bench)};
  return out;
}

ResilientResponse ResilientSweep::runPoints(SweepTestbench& bench, const Prelude& prelude,
                                            const Mark& since) {
  const auto wall_start = Clock::now();
  sim::Circuit& c = bench.circuit();
  TestSequencer& seq = bench.sequencer();
  pll::LockDetector& lock = bench.lockDetector();
  const double fn_hz = radPerSecToHz(config_.secondOrder().omega_n_rad_per_s);
  Stepper step(c, stop_);
  auto locked = [&] { return lock.isLocked(); };

  ResilientResponse out;
  out.response.nominal_vco_hz = prelude.nominal_vco_hz;
  out.response.static_reference_deviation_hz = prelude.static_reference_deviation_hz;

  const std::vector<double>& freqs = sweep_.modulation_frequencies_hz;
  // Record an unattempted point (stop or open breaker): Dropped, zero
  // attempts, the given status. Keeps points_total == requested count on
  // every exit path, so partial results are never silently truncated.
  auto skipPoint = [&](std::size_t i, Status status) {
    appendDroppedPoint(out, freqs[i], std::move(status));
    if (progress_) progress_(out.response.points.back());
  };

  const TestSequencer::Options base = seq.options();
  const double relock_wait_s = resilience_.relock_wait_periods / fn_hz;
  RelockBreaker breaker(resilience_.relock_breaker);
  // A failed prelude leaves nothing to measure: a stop during it cancels
  // every point, a stall labels every point with the prelude's status. A
  // stall inside a point labels every later point with that point's.
  bool cancelled = prelude.status.kind() == Status::Kind::Cancelled;
  Status stall;
  if (prelude.status.kind() == Status::Kind::SimulationStall) stall = out.status = prelude.status;

  for (std::size_t i = 0; i < freqs.size(); ++i) {
    const double fm = freqs[i];
    if (!cancelled && stop_ != nullptr && stop_->stopRequested()) cancelled = true;
    if (cancelled) {
      skipPoint(i, Status::makef(Status::Kind::Cancelled,
                                 "point %zu (fm = %g Hz): stop requested before measurement", i, fm));
      continue;
    }
    if (!stall.ok()) {
      skipPoint(i, stall);
      continue;
    }
    if (breaker.open()) {
      skipPoint(i, breaker.skipStatus(i, fm));
      continue;
    }
    obs::ScopedSpan point_span("point.measure");
    const auto point_start = Clock::now();
    step.startBudget(resilience_.point_budget_s);
    MeasuredPoint p;
    p.modulation_hz = fm;
    TestSequencer::PointResult last;
    // How the point ends: Ok (measured) or the reason it is dropped. A
    // relock changes the quality but does not end the point.
    Status::Kind end = Status::Kind::RetryExhausted;
    bool relocked = false;

    for (int attempt = 0; attempt < resilience_.max_attempts; ++attempt) {
      obs::ScopedSpan attempt_span("point.attempt");
      if (attempt > 0) PLLBIST_INSTANT("bist.retry");
      seq.setOptions(escalated(base, resilience_, attempt));
      if (on_attempt_start_) on_attempt_start_(i, attempt, bench);
      p.attempts = attempt + 1;

      bool done = false;
      seq.measurePoint(fm, [&](TestSequencer::PointResult r) {
        last = std::move(r);
        done = true;
      });
      StepOutcome o = step.stepUntil([&] { return done; }, kNoDeadline);
      if (o != StepOutcome::Done) {
        seq.abandon();  // the point's callbacks are still queued
      } else if (!last.timed_out) {
        end = Status::Kind::Ok;
        break;
      } else {
        // Failed attempt: park the stimulus and make sure the loop is still
        // alive before burning another attempt. The lock detector is reset
        // because modulation legitimately widens PFD pulses — only a loop
        // that stays unlocked past the grace window has actually lost lock.
        bench.stopStimulus();
        lock.reset();
        o = step.stepUntil(locked, c.now() + kRelockGracePeriods / fn_hz);
        if (o == StepOutcome::Deadline) {
          // Declared lock loss: bounded relock-and-resume.
          o = step.stepUntil(locked, c.now() + relock_wait_s);
          if (o == StepOutcome::Done) {
            ++out.report.relocks;
            PLLBIST_INSTANT("bist.relock");
            relocked = true;
          } else if (o == StepOutcome::Deadline) {
            ++out.report.relock_failures;
            PLLBIST_INSTANT("bist.relock_failed");
            end = Status::Kind::RelockFailed;
            break;  // further attempts are futile on an unlocked loop
          }
        }
      }
      if (const Status::Kind k = interruptedKind(o); k != Status::Kind::Ok) {
        end = k;
        break;
      }
    }
    step.startBudget(0.0);

    p.timed_out = end != Status::Kind::Ok;
    p.quality = PointQuality::Dropped;
    switch (end) {
      case Status::Kind::Ok:
        p.deviation_hz = last.held_frequency_hz - out.response.nominal_vco_hz;
        p.phase_deg = last.phase_deg;
        p.quality = relocked || p.attempts > 2 ? PointQuality::Degraded
                    : p.attempts == 2          ? PointQuality::Retried
                                               : PointQuality::Ok;
        if (sweep_.stimulus == StimulusKind::DelayLinePm) {
          p.unity_gain_deviation_hz =
              bench.pmThetaDevRad() * fm * static_cast<double>(config_.divider_n);
        }
        break;
      case Status::Kind::Cancelled:
        cancelled = true;
        p.status = Status::makef(Status::Kind::Cancelled,
                                 "point %zu (fm = %g Hz): stop requested at t = %g s "
                                 "mid-measurement (attempt %d abandoned)",
                                 i, fm, c.now(), p.attempts);
        break;
      case Status::Kind::DeadlineExceeded:
        p.status = Status::makef(Status::Kind::DeadlineExceeded,
                                 "point %zu (fm = %g Hz): wall budget %g s exceeded on attempt %d",
                                 i, fm, resilience_.point_budget_s, p.attempts);
        break;
      case Status::Kind::RelockFailed:
        p.status = Status::makef(
            Status::Kind::RelockFailed,
            "point %zu (fm = %g Hz): loop failed to re-lock within %g s after a failed attempt; "
            "last failure: %s",
            i, fm, relock_wait_s, last.status.toString().c_str());
        break;
      case Status::Kind::SimulationStall:
        p.status = Status::makef(Status::Kind::SimulationStall,
                                 "event queue ran dry at t = %g s measuring fm = %g Hz", c.now(),
                                 fm);
        stall = out.status = p.status;
        break;
      default:  // RetryExhausted
        p.status = Status::makef(Status::Kind::RetryExhausted,
                                 "point %zu (fm = %g Hz): all %d attempts failed; last failure: %s",
                                 i, fm, p.attempts, last.status.toString().c_str());
        break;
    }
    p.wall_time_s = std::chrono::duration<double>(Clock::now() - point_start).count();
    out.report.count(p);
    breaker.record(p);
    out.response.points.push_back(std::move(p));
    if (progress_) progress_(out.response.points.back());
  }

  if (cancelled && out.status.ok())
    out.status =
        Status::makef(Status::Kind::Cancelled, "stop requested at t = %g s; %d of %zu points "
                      "measured", c.now(), out.report.usable(), freqs.size());
  out.breaker_open = breaker.open();
  stamp(bench, since, wall_start, out);
  return out;
}

}  // namespace pllbist::bist
