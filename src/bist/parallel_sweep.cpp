#include "bist/parallel_sweep.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "bist/telemetry.hpp"
#include "bist/testbench.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace pllbist::bist {

Status ParallelSweepOptions::check() const {
  if (jobs < 0)
    return Status::makef(Status::Kind::InvalidArgument,
                         "ParallelSweepOptions: jobs = %d, must be >= 0 (0 = auto)", jobs);
  return resilience.check();
}

void ParallelSweepOptions::validate() const { check().throwIfError(); }

uint64_t pointSeed(uint64_t base_seed, std::size_t point_index) {
  // splitmix64 finalizer over base ^ golden-ratio-striped index: adjacent
  // indices and adjacent base seeds land far apart, and index 0 does not
  // collapse onto the base seed.
  uint64_t z = base_seed + (static_cast<uint64_t>(point_index) + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

SweepOptions singlePointOptions(const SweepOptions& base, std::size_t index) {
  SweepOptions single = base;
  single.modulation_frequencies_hz = {base.modulation_frequencies_hz.at(index)};
  single.jitter_seed = static_cast<unsigned>(pointSeed(base.jitter_seed, index));
  return single;
}

ParallelSweep::ParallelSweep(const pll::PllConfig& config, SweepOptions sweep,
                             ParallelSweepOptions options)
    : config_(config), sweep_(std::move(sweep)), options_(std::move(options)) {
  config_.validate();
  sweep_.check(config_).throwIfError();
  options_.check().throwIfError();
  results_.resize(sweep_.modulation_frequencies_hz.size());
}

void ParallelSweep::preload(std::size_t index, ResilientResponse result) {
  if (used_) throw std::logic_error("ParallelSweep::preload: engine already used");
  if (result.response.points.size() != 1)
    throw std::invalid_argument("ParallelSweep::preload: a preloaded result must hold one point");
  results_.at(index) = std::move(result);
}

ResilientResponse ParallelSweep::run() {
  if (used_) throw std::logic_error("ParallelSweep::run: engine already used");
  used_ = true;
  PLLBIST_SPAN("farm.run");
  const auto wall_start = std::chrono::steady_clock::now();

  const std::vector<double>& freqs = sweep_.modulation_frequencies_hz;
  const std::size_t n = freqs.size();
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < n; ++i)
    if (!results_[i]) pending.push_back(i);

  // The prelude (lock wait, nominal count, DC reference) depends only on
  // the configuration, so it runs once, on the source bench, and every
  // point forks the locked bench. A fully preloaded sweep runs it too: the
  // merged result adds its cost and takes its nominal exactly once.
  ResilientSweep source_engine(config_, singlePointOptions(sweep_, 0), options_.resilience);
  source_engine.attachStop(&stop_);
  const std::unique_ptr<SweepTestbench> source = source_engine.makeBench();
  const ResilientSweep::Prelude prelude = source_engine.runPrelude(*source);
  ResilientResponse prelude_run;  // published once: no fork counts the prelude
  prelude_run.status = prelude.status;
  prelude_run.bench = prelude.end.bench;
  publishRun(prelude_run);
  if (!prelude.status.ok()) pending.clear();

  // results_, breaker, decided and sink_error are guarded by `mutex` while
  // the workers run. Every finished result holds exactly one point.
  std::mutex mutex;
  RelockBreaker breaker(options_.resilience.relock_breaker);
  std::size_t decided = 0;  // points [0, decided) have passed the breaker
  auto advance = [&] {
    while (decided < n && results_[decided] && !breaker.open())
      breaker.record(results_[decided++]->response.points.front());
  };
  advance();  // a preloaded prefix may already have tripped it
  std::atomic<bool> breaker_open{breaker.open()};
  Status sink_error;

  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    obs::ScopedSpan worker_span("farm.worker");
    for (;;) {
      // Claim-then-check would tally a claimed-but-never-run point as an
      // engine failure; checking first keeps "never claimed" and "claimed
      // and cancelled in flight" the two only post-stop outcomes.
      if (stop_.stopRequested() || breaker_open.load(std::memory_order_acquire)) return;
      const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= pending.size()) return;
      const std::size_t i = pending[k];
      ResilientResponse r;
      try {
        ResilientSweep engine(config_, singlePointOptions(sweep_, i), options_.resilience);
        engine.attachStop(&stop_);
        const std::unique_ptr<SweepTestbench> bench = engine.makeBench();
        bench->copyStateFrom(*source);
        if (on_point_testbench_) on_point_testbench_(i, *bench);
        r = engine.runPoints(*bench, prelude, prelude.end);
      } catch (const std::exception& e) {
        r.status = Status::makef(Status::Kind::Internal,
                                 "point %zu (fm = %g Hz): engine threw: %s", i, freqs[i], e.what());
      }
      // The engine threw before producing its point: synthesise a Dropped
      // point carrying the reason.
      const bool measured = !r.response.points.empty();
      if (!measured) appendDroppedPoint(r, freqs[i], r.status);

      std::lock_guard<std::mutex> guard(mutex);
      // The merged view of a point is exactly its fork-local point (see
      // the fork model in the header), so it can be committed and
      // reported as soon as it lands — possibly out of point order.
      const MeasuredPoint& p = r.response.points.front();
      if (measured && sink_ && sink_error.ok() && p.status.kind() != Status::Kind::Cancelled) {
        if (Status s = sink_(i, r); !s.ok()) {
          sink_error = std::move(s);
          stop_.requestStop();
        }
      }
      if (measured && progress_) progress_(i, p);
      results_[i] = std::move(r);
      advance();
      if (breaker.open()) breaker_open.store(true, std::memory_order_release);
    }
  };

  const unsigned hw = std::thread::hardware_concurrency();
  std::size_t jobs = options_.jobs > 0 ? static_cast<std::size_t>(options_.jobs)
                                       : static_cast<std::size_t>(hw > 0 ? hw : 1);
  jobs = std::min(jobs, pending.size());
  obs::MetricsRegistry::global().gauge("bist.farm.jobs").set(static_cast<double>(jobs));
  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (std::size_t t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  // A point no worker claimed was stopped, lost its prelude (a stall), or
  // lies past an open breaker (where the merge below replaces it anyway).
  const bool stopped = stop_.stopRequested();
  for (std::size_t i = 0; i < n; ++i) {
    if (results_[i]) continue;
    appendDroppedPoint(results_[i].emplace(), freqs[i],
                       stopped ? Status::makef(Status::Kind::Cancelled,
                                               "point %zu (fm = %g Hz): stop requested before a "
                                               "worker claimed the point",
                                               i, freqs[i])
                       : !prelude.status.ok() ? prelude.status
                                              : breaker.skipStatus(i, freqs[i]));
  }
  advance();

  // Deterministic merge, strictly in point-index order regardless of which
  // worker finished when; points past an open breaker count as skipped.
  // The prelude's cost is counted once, before the points'.
  ResilientResponse out;
  out.response.nominal_vco_hz = prelude.nominal_vco_hz;
  out.response.static_reference_deviation_hz = prelude.static_reference_deviation_hz;
  out.report.sim_time_s = prelude.end.sim_time_s;
  out.bench = prelude.end.bench;
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= decided) {
      appendDroppedPoint(out, freqs[i], breaker.skipStatus(i, freqs[i]));
      continue;
    }
    ResilientResponse& r = *results_[i];
    // Simulated seconds add up across the farm; with wall_time_s below this
    // is the recorded sim-vs-wall speedup of the parallel execution.
    out.report.add(r.report);
    out.bench.add(r.bench);
    if (out.status.ok() && !r.status.ok()) out.status = r.status;
    out.response.points.push_back(std::move(r.response.points.front()));
  }
  out.breaker_open = breaker.open();
  if (!sink_error.ok())
    out.status = sink_error;
  else if (stopped && out.status.ok())
    out.status = Status::makef(Status::Kind::Cancelled,
                               "stop requested; %d of %zu points measured", out.report.usable(), n);
  else if (out.status.ok())
    out.status = prelude.status;
  out.report.wall_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return out;
}

}  // namespace pllbist::bist
