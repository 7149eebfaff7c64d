#include "workloads.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bist/parallel_sweep.hpp"
#include "control/grid.hpp"
#include "core/campaign.hpp"
#include "core/journal.hpp"
#include "core/testplan.hpp"
#include "golden/differential.hpp"
#include "golden/linear_model.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "pll/config.hpp"
#include "pll/faults.hpp"

namespace perfbench {
namespace {

using namespace pllbist;

constexpr int kJobs = 2;       // farm / campaign workers, and screening threads
// A run sets up at least kSetupMinReps times and until the set-ups add up to
// kSetupBudgetS, so that even a 0.1 s set-up is sampled across the host's
// second-scale speed swings; setup_s is their median.
constexpr int kSetupMinReps = 5;
constexpr int kSetupMaxReps = 40;
constexpr double kSetupBudgetS = 4.0;
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------- inputs

uint64_t splitmix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double unit01(uint64_t& state) { return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53; }

/// Seed of unit `index` of a run. The warm-up unit uses index ~0.
uint64_t unitSeed(uint64_t run_seed, uint64_t index) {
  uint64_t state = run_seed ^ (index * 0xd1b54a32d192ed03ULL);
  splitmix64(state);
  return splitmix64(state);
}
constexpr uint64_t kWarmupIndex = ~0ULL;

/// +/-5% manufacturing spread on C, R2 and Kvco.
pll::PllConfig withSpread(pll::PllConfig cfg, uint64_t& state) {
  cfg.pump.c_farad *= 0.95 + 0.10 * unit01(state);
  cfg.pump.r2_ohm *= 0.95 + 0.10 * unit01(state);
  cfg.vco.gain_hz_per_v *= 0.95 + 0.10 * unit01(state);
  return cfg;
}

/// One device of a Bode workload, with its oracle.
struct Device {
  pll::PllConfig config;
  golden::GoldenModel model;
  bist::SweepOptions sweep;
  double fn_hz = 0.0;

  Device(const pll::PllConfig& cfg, bist::SweepOptions base, double f_max_over_fn, int points)
      : config(cfg), model(cfg), sweep(std::move(base)), fn_hz(model.naturalFrequencyHz()) {
    sweep.modulation_frequencies_hz = control::logspace(fn_hz / 4.0, f_max_over_fn * fn_hz, points);
  }
};

/// reference_bode: the Table 3 device with spread, 12-point ten-step FSK
/// sweep from fn/4 to 5 fn.
Device referenceDevice(uint64_t seed) {
  uint64_t state = seed;
  const pll::PllConfig cfg = withSpread(pll::referenceConfig(), state);
  const pll::ReferenceStimulus stim = pll::referenceStimulus();
  bist::SweepOptions sweep;
  sweep.stimulus = bist::StimulusKind::MultiToneFsk;
  sweep.fm_steps = stim.fm_steps;
  sweep.deviation_hz = stim.max_deviation_hz;
  sweep.master_clock_hz = stim.master_clock_hz;
  sweep.jitter_seed = static_cast<unsigned>(seed);
  return Device(cfg, sweep, 5.0, 12);
}

/// campaign_resume: a golden-family random device (seeds kept clear of the
/// 1..40 range the golden bands were calibrated on), 12 points fn/4..2.5 fn.
/// Unit `index` is drawn from stratum index % 16 (fn octile x pump kind), so
/// every 16 consecutive devices span the family evenly whatever the seed;
/// a point's cost scales with 1/fn, and an unstratified draw would let the
/// seed move the workload's mean cost.
Device campaignDevice(uint64_t seed, uint64_t index) {
  const int stratum = static_cast<int>(index % 16);
  uint64_t state = seed;
  for (;;) {
    const uint64_t golden_seed = 41 + (splitmix64(state) >> 2);
    const golden::SeededConfig sc = golden::seededRandomConfig(golden_seed);
    const double u = std::log(sc.fn_hz / 120.0) / std::log(420.0 / 120.0);
    const int octile = std::clamp(static_cast<int>(u * 8.0), 0, 7);
    const int pump = sc.config.pump.kind == pll::PumpKind::Voltage4046 ? 0 : 1;
    if (octile + 8 * pump != stratum) continue;
    bist::SweepOptions sweep =
        bist::quickSweepOptions(sc.config, bist::StimulusKind::MultiToneFsk, 12);
    sweep.fm_steps = golden::DifferentialOptions{}.fm_steps;
    sweep.jitter_seed = static_cast<unsigned>(golden_seed);
    return Device(sc.config, sweep, 2.5, 12);
  }
}

/// screening_lot DUT: three in four in-spec with spread, every fourth one
/// carrying a fault from the standard set (on top of the spread), the faults
/// taken in turn from a seeded starting point.
struct Dut {
  pll::PllConfig config;
  bool faulty = false;
};

Dut screeningDut(const pll::PllConfig& golden, uint64_t run_seed, uint64_t index) {
  uint64_t state = unitSeed(run_seed, index);
  Dut dut{withSpread(golden, state), index % 4 == 3};
  if (dut.faulty) {
    const std::vector<pll::FaultSpec> faults = pll::standardFaultSet();
    uint64_t offset_state = run_seed;
    const uint64_t offset = splitmix64(offset_state);
    dut.config = pll::applyFault(dut.config, faults[(index / 4 + offset) % faults.size()]);
  }
  return dut;
}

// ---------------------------------------------------------------- helpers

double secondsBetween(int64_t a, int64_t b) { return 1e-9 * static_cast<double>(b - a); }

double cpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double wrapDeg(double deg) {
  while (deg <= -180.0) deg += 360.0;
  while (deg > 180.0) deg -= 360.0;
  return deg;
}

bool pointOk(const bist::MeasuredPoint& p) {
  return !p.timed_out && p.status.ok() && p.quality != bist::PointQuality::Dropped;
}

bool sameDouble(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Bit-level equality of two farm results (everything but wall times).
bool bitIdentical(const bist::ResilientResponse& a, const bist::ResilientResponse& b) {
  if (a.response.points.size() != b.response.points.size()) return false;
  for (std::size_t i = 0; i < a.response.points.size(); ++i) {
    const bist::MeasuredPoint& x = a.response.points[i];
    const bist::MeasuredPoint& y = b.response.points[i];
    if (!sameDouble(x.modulation_hz, y.modulation_hz) || !sameDouble(x.deviation_hz, y.deviation_hz) ||
        !sameDouble(x.phase_deg, y.phase_deg) ||
        !sameDouble(x.unity_gain_deviation_hz, y.unity_gain_deviation_hz) ||
        x.timed_out != y.timed_out || x.quality != y.quality || x.attempts != y.attempts ||
        x.status.kind() != y.status.kind())
      return false;
  }
  const bist::SweepQualityReport& p = a.report;
  const bist::SweepQualityReport& q = b.report;
  const bist::BenchStats& s = a.bench;
  const bist::BenchStats& t = b.bench;
  return sameDouble(a.response.nominal_vco_hz, b.response.nominal_vco_hz) &&
         sameDouble(a.response.static_reference_deviation_hz,
                    b.response.static_reference_deviation_hz) &&
         p.ok == q.ok && p.retried == q.retried && p.degraded == q.degraded &&
         p.dropped == q.dropped && p.attempts_total == q.attempts_total &&
         p.relocks == q.relocks && p.relock_failures == q.relock_failures &&
         sameDouble(p.sim_time_s, q.sim_time_s) && s.events_processed == t.events_processed &&
         s.events_delivered == t.events_delivered && s.events_dropped == t.events_dropped &&
         s.events_delayed == t.events_delayed && s.events_swallowed == t.events_swallowed &&
         a.status.kind() == b.status.kind();
}

/// The report with its timing fields removed; nullopt if it does not parse.
std::optional<std::string> strippedReport(const obs::RunReport& report) {
  obs::JsonValue root;
  if (!obs::parseJson(report.toJson(), root).ok()) return std::nullopt;
  obs::stripTimingFields(root);
  return root.dump();
}

// ---------------------------------------------------------------- tallies

/// Everything a run measures. Timed-phase fields cover every unit; the
/// exact fields cover only the first `units` units, which every run
/// completes, so they repeat bit for bit under a fixed seed.
struct Tally {
  // Set-up and timed phase.
  std::vector<double> setup_s;
  int64_t timed_start_ns = 0;
  double timed_s = 0.0;
  double cpu_s = 0.0;
  uint64_t units_done = 0;

  // Operations: a point, or a DUT screen. `mu` guards these fields while
  // the screening threads run.
  std::mutex mu;
  std::vector<double> op_ms;  ///< +inf for a failed operation
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t points_done = 0;
  double op_busy_s = 0.0;

  void op(int64_t start_ns, int64_t end_ns, bool ok, uint64_t points) {
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    if (ok) {
      op_ms.push_back(1e-6 * static_cast<double>(end_ns - start_ns));
      op_busy_s += secondsBetween(start_ns, end_ns);
      points_done += points;
    } else {
      op_ms.push_back(kInf);
      ++failed;
    }
  }

  // Exact, over the first `units` units.
  uint64_t x_ops = 0, x_ops_ok = 0, x_points = 0;
  uint64_t x_events = 0, x_delivered = 0, x_attempts = 0, x_relocks = 0;
  double x_sim_s = 0.0;
  int x_compared = 0, x_passed = 0;
  double x_max_db = 0.0, x_max_deg = 0.0;
  int x_verdicts = 0, x_agree = 0;
  uint64_t x_resimulated = 0;

  // Layer timings.
  std::vector<double> sweep_ms;  ///< one device's farm run / uninterrupted campaign
  double sweep_sum_s = 0.0;
  double farm_busy_s = 0.0;      ///< point busy time inside those runs
  std::vector<double> characterise_s, resume_s, append_ms, load_ms, replay_ms;

  /// Closes the timed phase.
  void endTimed(double cpu0) {
    timed_s = secondsBetween(timed_start_ns, nowNs());
    cpu_s = cpuSeconds() - cpu0;
  }

  void addExactBench(const bist::ResilientResponse& r) {
    x_points += r.response.points.size();
    x_events += r.bench.events_processed;
    x_delivered += r.bench.events_delivered;
    x_attempts += static_cast<uint64_t>(r.report.attempts_total);
    x_relocks += static_cast<uint64_t>(r.report.relocks);
    x_sim_s += r.report.sim_time_s;
  }

  /// BIST vs oracle, the golden differential rule: DESIGN section 9 bands,
  /// one-Tref transport-delay phase correction, beyond-band points excluded.
  void addAccuracy(const Device& d, const bist::MeasuredResponse& r) {
    control::BodeResponse bode;
    try {
      bode = r.toBode();
    } catch (const std::domain_error&) {
      return;
    }
    const golden::ToleranceBands bands = golden::ToleranceBands::defaults();
    std::size_t bi = 0;
    for (const bist::MeasuredPoint& p : r.points) {
      if (p.timed_out || bi >= bode.size()) continue;
      const control::BodePoint& bp = bode.points()[bi++];
      const golden::ToleranceBand* band = bands.bandFor(p.modulation_hz / d.fn_hz);
      if (band == nullptr) continue;
      const double db = std::abs(bp.magnitude_db - d.model.magnitudeDb(p.modulation_hz));
      const double deg = std::abs(wrapDeg(bp.phase_deg - d.model.phaseDeg(p.modulation_hz) +
                                          360.0 * p.modulation_hz / d.config.ref_frequency_hz));
      ++x_compared;
      if (db <= band->magnitude_db && deg <= band->phase_deg) ++x_passed;
      x_max_db = std::max(x_max_db, db);
      x_max_deg = std::max(x_max_deg, deg);
    }
  }
};

/// Per-unit point timing from the farm hooks: bench assembled -> point
/// classified. Hooks fire on worker threads, hence the atomics.
class PointTimes {
 public:
  explicit PointTimes(std::size_t n) : start_(n), end_(n) {}
  void attach(auto& engine) {
    engine.onPointTestbench(
        [this](std::size_t i, bist::SweepTestbench&) { start_[i].store(nowNs()); });
    engine.onPointMeasured(
        [this](std::size_t i, const bist::MeasuredPoint&) { end_[i].store(nowNs()); });
  }
  /// Account point `i` of `response` as one operation (and one span);
  /// returns its busy seconds, 0 when it failed.
  double account(std::size_t i, const bist::MeasuredResponse& response, Tally& tally,
                 SpanRecorder& spans, uint64_t parent, uint64_t unit) {
    const int64_t t0 = start_[i].load(), t1 = end_[i].load();
    const bool timed = t0 > 0 && t1 >= t0;
    const bool ok = timed && i < response.points.size() && pointOk(response.points[i]);
    tally.op(t0, t1, ok, 1);
    if (timed) spans.end(spans.begin("bist.point", parent, unit, t0), t1);
    return ok ? secondsBetween(t0, t1) : 0.0;
  }

 private:
  std::vector<std::atomic<int64_t>> start_, end_;
};

/// The timed phase runs until the deadline and at least `units` units.
bool timeLeft(int64_t deadline_ns, uint64_t index, uint64_t units) {
  return index < units || nowNs() < deadline_ns;
}

/// Runs `setup` kSetupMinReps..kSetupMaxReps times (see kSetupBudgetS); the
/// first figure runs from harness start.
void timeSetups(Tally& tally, int64_t harness_start_ns, const std::function<void()>& setup) {
  double total_s = 0.0;
  for (int rep = 0; rep < kSetupMaxReps && (rep < kSetupMinReps || total_s < kSetupBudgetS);
       ++rep) {
    const int64_t t0 = rep == 0 ? harness_start_ns : nowNs();
    setup();
    tally.setup_s.push_back(secondsBetween(t0, nowNs()));
    total_s += tally.setup_s.back();
  }
}

// ---------------------------------------------------------------- reference_bode

void runReferenceBode(const Options& o, SpanRecorder& spans, Tally& tally, Result& result) {
  const uint64_t units = o.units > 0 ? static_cast<uint64_t>(o.units) : 12;
  bist::ParallelSweepOptions farm;
  farm.jobs = kJobs;

  // Set-up builds the exact prefix; later devices are built as the timed
  // phase reaches them (microseconds against a sweep's second).
  std::deque<Device> devices;
  auto device = [&](uint64_t u) -> const Device& {
    while (devices.size() <= u) devices.push_back(referenceDevice(unitSeed(o.seed, devices.size())));
    return devices[u];
  };
  timeSetups(tally, o.start_ns, [&] {
    devices.clear();
    (void)device(units - 1);
    const Device warm = referenceDevice(unitSeed(o.seed, kWarmupIndex));
    bist::ParallelSweep engine(warm.config, warm.sweep, farm);
    (void)engine.run();
  });

  bist::ResilientResponse first;
  tally.timed_start_ns = nowNs();
  const double cpu0 = cpuSeconds();
  const int64_t deadline = tally.timed_start_ns + static_cast<int64_t>(o.seconds * 1e9);
  for (uint64_t u = 0; timeLeft(deadline, u, units); ++u) {
    const Device& d = device(u);
    const uint64_t unit_span = spans.begin("unit", 0, u);
    const uint64_t farm_span = spans.begin("bist.farm", unit_span, u);
    const std::size_t n = d.sweep.modulation_frequencies_hz.size();
    PointTimes times(n);
    const int64_t t0 = nowNs();
    bist::ResilientResponse r;
    bool threw = false;
    try {
      bist::ParallelSweep engine(d.config, d.sweep, farm);
      times.attach(engine);
      r = engine.run();
    } catch (const std::exception& e) {
      threw = true;
      result.failures.push_back(std::string("reference_bode: sweep threw: ") + e.what());
    }
    const int64_t t1 = nowNs();
    spans.end(farm_span, t1);
    for (std::size_t i = 0; i < n; ++i)
      tally.farm_busy_s += times.account(i, r.response, tally, spans, farm_span, u);
    spans.end(unit_span);
    tally.sweep_ms.push_back(1e-6 * static_cast<double>(t1 - t0));
    tally.sweep_sum_s += secondsBetween(t0, t1);
    ++tally.units_done;
    if (u < units && !threw) {
      tally.addExactBench(r);
      tally.addAccuracy(d, r.response);
      for (const bist::MeasuredPoint& p : r.response.points) {
        ++tally.x_ops;
        if (pointOk(p)) ++tally.x_ops_ok;
      }
      if (u == 0) first = r;
    } else if (u < units) {
      tally.x_ops += n;
    }
  }
  tally.endTimed(cpu0);

  // Gate: the farm's result does not depend on the worker count.
  bist::ParallelSweepOptions serial = farm;
  serial.jobs = 1;
  bist::ParallelSweep engine(devices[0].config, devices[0].sweep, serial);
  if (!bitIdentical(first, engine.run()))
    result.failures.push_back("reference_bode: device 0 differs between jobs=1 and jobs=2");
}

// ---------------------------------------------------------------- screening_lot

void runScreeningLot(const Options& o, SpanRecorder& spans, Tally& tally, Result& result) {
  const uint64_t units = o.units > 0 ? static_cast<uint64_t>(o.units) : 100;
  const pll::PllConfig golden = pll::scaledTestConfig(200.0, 0.43);
  const int points_per_dut = 8;

  std::unique_ptr<core::TestPlan> plan;
  timeSetups(tally, o.start_ns, [&] {
    const bist::SweepOptions sweep =
        bist::quickSweepOptions(golden, bist::StimulusKind::MultiToneFsk, points_per_dut);
    const int64_t c0 = nowNs();
    plan = std::make_unique<core::TestPlan>(golden, sweep, 0.20);
    tally.characterise_s.push_back(secondsBetween(c0, nowNs()));
    // Gate, and the warm-up unit: the golden device passes its own plan.
    if (!plan->screen(golden).verdict.pass)
      result.failures.push_back("screening_lot: the golden device fails its own plan");
  });

  // DUTs are drawn as the workers reach them; verdicts are kept for the
  // exact prefix only.
  std::vector<char> agree(units, 0), ok(units, 0);
  auto screenRange = [&](uint64_t begin, uint64_t end, int64_t deadline) {
    std::atomic<uint64_t> next{begin};
    auto worker = [&] {
      for (uint64_t i = next++; i < end && (deadline < 0 || nowNs() < deadline); i = next++) {
        const Dut dut = screeningDut(golden, o.seed, i);
        const uint64_t unit_span = spans.begin("unit", 0, i);
        const uint64_t screen_span = spans.begin("core.testplan.screen", unit_span, i);
        const int64_t t0 = nowNs();
        bool pass = false, measured = false, threw = false;
        try {
          const core::TestPlan::DutResult r = plan->screen(dut.config);
          pass = r.verdict.pass;
          measured = !r.measurement_failed;
        } catch (const std::exception&) {
          threw = true;
        }
        const int64_t t1 = nowNs();
        spans.end(screen_span, t1);
        spans.end(unit_span, t1);
        // An expected failure of a fault-labelled DUT completes the
        // operation; a throw fails it even then.
        const bool done = !threw && (measured || dut.faulty);
        if (i < units) {
          ok[i] = done;
          agree[i] = pass == !dut.faulty;
        }
        tally.op(t0, t1, done, points_per_dut);
      }
    };
    std::vector<std::thread> threads;
    for (int k = 0; k < kJobs; ++k) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  };

  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  auto counter = [&registry](const char* name) {
    const obs::MetricsSnapshot snap = registry.snapshot();
    const obs::CounterValue* c = snap.findCounter(name);
    return c != nullptr ? c->value : 0;
  };
  const uint64_t ev0 = counter("sim.kernel.events_processed");
  const uint64_t dl0 = counter("sim.kernel.events_delivered");
  const uint64_t at0 = counter("bist.resilient.attempts");
  const uint64_t rl0 = counter("bist.resilient.relocks");

  tally.timed_start_ns = nowNs();
  const double cpu0 = cpuSeconds();
  const int64_t deadline = tally.timed_start_ns + static_cast<int64_t>(o.seconds * 1e9);
  // The exact prefix runs to completion on its own, so the registry deltas
  // below cover exactly those DUTs.
  screenRange(0, units, -1);
  tally.x_events = counter("sim.kernel.events_processed") - ev0;
  tally.x_delivered = counter("sim.kernel.events_delivered") - dl0;
  tally.x_attempts = counter("bist.resilient.attempts") - at0;
  tally.x_relocks = counter("bist.resilient.relocks") - rl0;
  screenRange(units, std::numeric_limits<uint64_t>::max(), deadline);
  tally.endTimed(cpu0);
  tally.units_done = tally.attempted;

  for (uint64_t i = 0; i < units; ++i) {
    ++tally.x_ops;
    tally.x_ops_ok += ok[i];
    ++tally.x_verdicts;
    tally.x_agree += agree[i];
  }
  tally.x_points = units * points_per_dut;
}

// ---------------------------------------------------------------- campaign_resume

void runCampaignResume(const Options& o, SpanRecorder& recorder, Tally& tally, Result& result) {
  const uint64_t units = o.units > 0 ? static_cast<uint64_t>(o.units) : 48;
  const std::string full_path = o.out_dir + "/campaign-full.jsonl";
  const std::string cut_path = o.out_dir + "/campaign-cut.jsonl";

  core::CampaignOptions base;
  base.jobs = kJobs;
  base.tool = "perfbench";
  base.device = "seeded";

  // One device's cycle: uninterrupted journaled campaign, journal load, cut
  // copy (header + first half of the records + a torn line), resume from the
  // cut copy, and a replay of the now complete journal.
  struct Cycle {
    bist::ResilientResponse uninterrupted;
    bist::ResilientResponse resumed;
    int resimulated = 0;
  };
  SpanRecorder untraced(false);
  auto cycle = [&](const Device& d, uint64_t unit, bool timed) -> Cycle {
    Cycle out;
    // The warm-up cycle records no spans: self times are per timed unit.
    SpanRecorder& spans = timed ? recorder : untraced;
    const std::size_t n = d.sweep.modulation_frequencies_hz.size();
    const uint64_t unit_span = spans.begin("unit", 0, unit);
    auto fail = [&](const std::string& what) {
      result.failures.push_back("campaign_resume: unit " + std::to_string(unit) + ": " + what);
    };

    // 1. Uninterrupted campaign.
    core::CampaignOptions fresh_opt = base;
    fresh_opt.journal_path = full_path;
    PointTimes fresh_times(n);
    const uint64_t run_span = spans.begin("core.campaign.run", unit_span, unit);
    const int64_t t0 = nowNs();
    core::Campaign fresh(d.config, d.sweep, fresh_opt);
    fresh_times.attach(fresh);
    const core::CampaignResult uninterrupted = fresh.run();
    const int64_t t1 = nowNs();
    spans.end(run_span, t1);
    if (timed) {
      for (std::size_t i = 0; i < n; ++i)
        tally.farm_busy_s +=
            fresh_times.account(i, uninterrupted.merged.response, tally, spans, run_span, unit);
      tally.sweep_ms.push_back(1e-6 * static_cast<double>(t1 - t0));
      tally.sweep_sum_s += secondsBetween(t0, t1);
    }
    if (!uninterrupted.status.ok()) fail("campaign: " + uninterrupted.status.toString());
    out.uninterrupted = uninterrupted.merged;

    // 2. Load the journal.
    core::JournalLoadResult loaded;
    const uint64_t load_span = spans.begin("core.journal.load", unit_span, unit);
    const int64_t l0 = nowNs();
    const Status load_status = core::loadJournal(full_path, loaded);
    const int64_t l1 = nowNs();
    spans.end(load_span, l1);
    if (timed) tally.load_ms.push_back(1e-6 * static_cast<double>(l1 - l0));
    if (!load_status.ok() || loaded.records.size() != n) {
      fail("journal load: " + load_status.toString());
      spans.end(unit_span);
      return out;
    }

    // 3. Cut copy: what a kill -9 in the middle of an append leaves. The kept
    // half is the lower point indices, as a serial campaign commits them.
    std::sort(loaded.records.begin(), loaded.records.end(),
              [](const core::CheckpointRecord& a, const core::CheckpointRecord& b) {
                return a.index < b.index;
              });
    const std::size_t keep = n / 2;
    const uint64_t cut_span = spans.begin("core.journal.cut", unit_span, unit);
    {
      core::JournalWriter writer;
      Status s = writer.create(cut_path, loaded.header);
      for (std::size_t k = 0; k < keep && s.ok(); ++k) {
        const uint64_t append_span = spans.begin("core.journal.append", cut_span, unit);
        const int64_t a0 = nowNs();
        s = writer.append(loaded.records[k]);
        const int64_t a1 = nowNs();
        spans.end(append_span, a1);
        if (timed) tally.append_ms.push_back(1e-6 * static_cast<double>(a1 - a0));
      }
      writer.close();
      const std::string torn = core::JournalWriter::recordLine(loaded.records[keep]);
      std::FILE* f = std::fopen(cut_path.c_str(), "ab");
      bool torn_ok = f != nullptr &&
                     std::fwrite(torn.data(), 1, torn.size() / 2, f) == torn.size() / 2;
      if (f != nullptr) torn_ok = std::fclose(f) == 0 && torn_ok;
      if (!s.ok()) fail("writing the cut journal: " + s.toString());
      if (!torn_ok) fail("writing the torn line of the cut journal");
    }
    spans.end(cut_span);

    // 4. Resume from the cut copy, continuing it in place.
    core::CampaignOptions resume_opt = base;
    resume_opt.resume_path = cut_path;
    resume_opt.journal_path = cut_path;
    PointTimes resume_times(n);
    const uint64_t resume_span = spans.begin("core.campaign.resume", unit_span, unit);
    const int64_t r0 = nowNs();
    core::Campaign resumed(d.config, d.sweep, resume_opt);
    resume_times.attach(resumed);
    const core::CampaignResult after = resumed.run();
    const int64_t r1 = nowNs();
    spans.end(resume_span, r1);
    if (timed) {
      for (std::size_t i = keep; i < n; ++i)
        resume_times.account(i, after.merged.response, tally, spans, resume_span, unit);
      tally.resume_s.push_back(secondsBetween(r0, r1));
    }
    out.resumed = after.merged;
    out.resimulated = after.points_executed;
    // Gate: exactly-once accounting, and the same report as the uninterrupted run.
    if (after.points_resumed != static_cast<int>(keep) ||
        after.points_executed != static_cast<int>(n - keep) || !after.torn_tail_repaired)
      fail("resume executed " + std::to_string(after.points_executed) + " and resumed " +
           std::to_string(after.points_resumed) + " of " + std::to_string(n) + " points");
    const std::optional<std::string> resumed_report = strippedReport(after.report);
    if (!resumed_report || resumed_report != strippedReport(uninterrupted.report))
      fail("resumed report differs from the uninterrupted one");

    // 5. Replay the complete journal: nothing left to simulate.
    core::CampaignOptions replay_opt = base;
    replay_opt.resume_path = cut_path;
    const uint64_t replay_span = spans.begin("core.campaign.replay", unit_span, unit);
    const int64_t p0 = nowNs();
    core::Campaign replay(d.config, d.sweep, replay_opt);
    const core::CampaignResult replayed = replay.run();
    const int64_t p1 = nowNs();
    spans.end(replay_span, p1);
    if (timed) tally.replay_ms.push_back(1e-6 * static_cast<double>(p1 - p0));
    if (replayed.points_executed != 0 || !replayed.status.ok())
      fail("replay of a complete journal executed " + std::to_string(replayed.points_executed) +
           " points (" + replayed.status.toString() + ")");
    spans.end(unit_span);
    return out;
  };

  std::deque<Device> devices;  // as in reference_bode: prefix in set-up, the rest on demand
  auto device = [&](uint64_t u) -> const Device& {
    while (devices.size() <= u)
      devices.push_back(campaignDevice(unitSeed(o.seed, devices.size()), devices.size()));
    return devices[u];
  };
  timeSetups(tally, o.start_ns, [&] {
    devices.clear();
    (void)device(units - 1);
    (void)cycle(campaignDevice(unitSeed(o.seed, kWarmupIndex), 0), kWarmupIndex, false);
  });

  tally.timed_start_ns = nowNs();
  const double cpu0 = cpuSeconds();
  const int64_t deadline = tally.timed_start_ns + static_cast<int64_t>(o.seconds * 1e9);
  for (uint64_t u = 0; timeLeft(deadline, u, units); ++u) {
    const Cycle c = cycle(device(u), u, true);
    ++tally.units_done;
    if (u < units) {
      tally.addExactBench(c.uninterrupted);
      tally.addAccuracy(devices[u], c.uninterrupted.response);
      const std::size_t n = devices[u].sweep.modulation_frequencies_hz.size();
      tally.x_resimulated += static_cast<uint64_t>(c.resimulated);
      // Operations: every point simulated, fresh or re-simulated on resume.
      tally.x_ops += n + (n - n / 2);
      for (const bist::MeasuredPoint& p : c.uninterrupted.response.points)
        tally.x_ops_ok += pointOk(p);
      for (std::size_t i = n / 2; i < c.resumed.response.points.size(); ++i)
        tally.x_ops_ok += pointOk(c.resumed.response.points[i]);
    }
  }
  tally.endTimed(cpu0);
  std::remove(full_path.c_str());
  std::remove(cut_path.c_str());
}

// ---------------------------------------------------------------- metrics

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void buildMetrics(const SpanRecorder& spans, Tally& t, Result& r) {
  // Points completed over the whole timed phase. The host's speed swings in
  // spells of seconds; a mean over the phase moves smoothly with the share
  // of slow spells, where a median of windows jumps between the two speeds.
  const double throughput = ratio(static_cast<double>(t.points_done), t.timed_s);
  const double p50 = quantile(t.op_ms, 0.50);
  const double p90 = quantile(t.op_ms, 0.90);
  r.attempted = t.attempted;
  r.failed = t.failed;

  r.end_to_end = {
      {"setup_s", median(t.setup_s), "s"},
      {"throughput_points_per_s", throughput, "1/s"},
      {"op_latency_p50_ms", p50, "ms"},
      {"op_latency_p90_ms", p90, "ms"},
      {"op_success_ratio", ratio(static_cast<double>(t.x_ops_ok), static_cast<double>(t.x_ops)),
       "ratio"},
      {"peak_rss_mb", peakRssMb(), "MB"},
  };

  const double points = static_cast<double>(t.x_points);
  const double units = static_cast<double>(std::max<uint64_t>(t.units_done, 1));
  std::map<std::string, double> self = spans.selfSeconds();
  auto selfPerUnit = [&](const char* name) { return self[name] / units; };

  r.per_layer = {
      {"sim.events_per_point", ratio(static_cast<double>(t.x_events), points), "count"},
      {"sim.delivered_ratio",
       ratio(static_cast<double>(t.x_delivered), static_cast<double>(t.x_events)), "ratio"},
      {"sim.events_per_busy_s",
       ratio(static_cast<double>(t.x_events) / std::max(points, 1.0),
             t.op_busy_s / std::max(static_cast<double>(t.points_done), 1.0)),
       "1/s"},
      {"pll.sim_s_per_point", ratio(t.x_sim_s, points), "s"},
      {"pll.sim_s_per_busy_s",
       ratio(t.x_sim_s / std::max(points, 1.0),
             t.op_busy_s / std::max(static_cast<double>(t.points_done), 1.0)),
       "s/s"},
      {"bist.point.attempts_per_point", ratio(static_cast<double>(t.x_attempts), points), "count"},
      {"bist.point.relocks", static_cast<double>(t.x_relocks), "count"},
      {"bist.farm.sweep_wall_ms_p50", median(t.sweep_ms), "ms"},
      {"bist.farm.worker_utilisation", ratio(t.farm_busy_s, kJobs * t.sweep_sum_s), "ratio"},
      {"bist.farm.cpu_ms_per_point", ratio(1e3 * t.cpu_s, static_cast<double>(t.points_done)),
       "ms"},
      {"bist.accuracy_max_abs_db", t.x_max_db, "dB"},
      {"bist.accuracy_max_abs_deg", t.x_max_deg, "deg"},
      {"bist.band_pass_ratio", ratio(t.x_passed, t.x_compared), "ratio"},
      {"bist.points_compared", static_cast<double>(t.x_compared), "count"},
      {"core.testplan.characterise_s", median(t.characterise_s), "s"},
      {"core.testplan.verdict_agreement_ratio", ratio(t.x_agree, t.x_verdicts), "ratio"},
      {"core.campaign.resume_wall_s", median(t.resume_s), "s"},
      {"core.campaign.journal_append_ms_p50", quantile(t.append_ms, 0.50), "ms"},
      {"core.campaign.journal_append_ms_p90", quantile(t.append_ms, 0.90), "ms"},
      {"core.campaign.journal_load_ms", median(t.load_ms), "ms"},
      {"core.campaign.replay_ms", median(t.replay_ms), "ms"},
      {"core.campaign.resimulated_points", static_cast<double>(t.x_resimulated), "count"},
      {"unit.self_s", selfPerUnit("unit"), "s"},
      {"bist.farm.self_s", selfPerUnit("bist.farm"), "s"},
      {"bist.point.self_s", selfPerUnit("bist.point"), "s"},
      {"core.testplan.screen.self_s", selfPerUnit("core.testplan.screen"), "s"},
      {"core.campaign.run.self_s", selfPerUnit("core.campaign.run"), "s"},
      {"core.campaign.resume.self_s", selfPerUnit("core.campaign.resume"), "s"},
      {"core.campaign.replay.self_s", selfPerUnit("core.campaign.replay"), "s"},
      {"core.journal.load.self_s", selfPerUnit("core.journal.load"), "s"},
      {"core.journal.cut.self_s", selfPerUnit("core.journal.cut"), "s"},
      {"core.journal.append.self_s", selfPerUnit("core.journal.append"), "s"},
      {"trace.throughput_points_per_s", throughput, "1/s"},
      {"trace.op_latency_p50_ms", p50, "ms"},
      {"trace.spans", static_cast<double>(spans.size()), "count"},
  };
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"reference_bode", "screening_lot",
                                                 "campaign_resume"};
  return names;
}

Result runWorkload(const Options& options, SpanRecorder& spans) {
  Result result;
  Tally tally;
  if (options.workload == "reference_bode") runReferenceBode(options, spans, tally, result);
  else if (options.workload == "screening_lot") runScreeningLot(options, spans, tally, result);
  else if (options.workload == "campaign_resume") runCampaignResume(options, spans, tally, result);
  else throw std::invalid_argument("unknown workload: " + options.workload);
  buildMetrics(spans, tally, result);
  return result;
}

}  // namespace perfbench
