// Seeded fuzz driver for the sweep stack: mutate device + sweep options
// around the seeded-config family, optionally choreograph sim-level faults
// through the PR-1 injector, run a short resilient sweep and hold the
// result to the library's structural invariants:
//
//   1. no NaN/Inf escapes a MeasuredPoint or the quality roll-up;
//   2. every Status carries a kind inside the taxonomy (kindName never
//      falls through to "unknown"), and invalid options are rejected as
//      InvalidArgument instead of crashing;
//   3. the SweepQualityReport counters are internally consistent;
//   4. the consolidated RunReport round-trips through the obs JSON parser
//      (toJson -> parse -> validate -> dump -> reparse -> dump fixpoint);
//   5. the checkpoint-journal loader is crash-proof under mutation: a
//      synthesized journal is torn, duplicated, reordered, bit-flipped,
//      beheaded or digest-corrupted, and the loader must either accept it
//      with unique in-range indices (exactly-once resume) or fail closed
//      as InvalidArgument — never crash, never accept garbage.
//   6. observing the VCO output changes no result: on a seeded quarter of
//      the sweeps the case runs again with a dummy observer on the VCO
//      output (so every half-cycle is simulated instead of skipped), and
//      the points, statuses and quality report must be bit-identical.
//   7. the point farm's fork is exact: on a seeded quarter of the sweeps
//      the case also runs on the ParallelSweep farm (one shared prelude,
//      forked per point, fault hook on each fork), and every point is
//      re-run as a standalone ResilientSweep(singlePointOptions(base, i))
//      with the same hook fired at attempt 0. Points, statuses and quality
//      counts must be bit-identical, and the farm's kernel counts and
//      sim_time_s must equal P + sum(S_i - P), P being the prelude alone.
//   8. observing the phase detectors' internal nets, the loop's nets and
//      the stimulus changes no result: on a seeded quarter of the sweeps
//      the case runs again with dummy observers on the monitor PFD's UP/DN
//      and reset net, the loop PFD's reset net, PLLREF, PLLFB, the PFD's
//      feedback input, the loop PFD's UP/DN and the stimulus the loop pulls
//      (so the detectors, the loop and the stimulus source write them, and
//      the peak detector wakes itself at each monitor reset), and the
//      points, statuses and quality report must be bit-identical.
//   9. cutting the kernel's runs changes no result: on a seeded quarter of
//      the sweeps the case runs on the ParallelSweep farm twice, once as
//      it is and once with a self-rescheduling no-op closure at seeded
//      random intervals on each point's bench (added after the fork, so no
//      pending closure is forked). Every closure event ends the loop's
//      run-ahead there, so the loop crosses those instants one event at a
//      time; the points, statuses and quality report must be bit-identical.
//  10. hearing the stimulus net changes no result: on a seeded quarter of
//      the sweeps without other fault rules, the case runs again with a
//      drop-probability-0 rule on the stimulus, so the loop hears the
//      stimulus net's writes instead of pulling the source's edges; the
//      points, statuses and quality report must be bit-identical.
//
// Built two ways:
//   - standalone driver (always): fuzz_sweep --seed N --runs N
//     [--max-seconds S] [--verbose] — deterministic, used by the
//     `fuzz_smoke` ctest entry;
//   - libFuzzer target (clang + -DPLLBIST_FUZZ=ON): the same fuzzOne()
//     behind LLVMFuzzerTestOneInput.
//
// Any invariant violation prints the offending seed and aborts, so both
// the smoke test and the libFuzzer loop detect it.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bist/sweep_types.hpp"
#include "bist/parallel_sweep.hpp"
#include "bist/resilient_sweep.hpp"
#include "bist/testbench.hpp"
#include "core/journal.hpp"
#include "core/report_builder.hpp"
#include "golden/differential.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "sim/fault_injector.hpp"

namespace {

using pllbist::Status;

uint64_t splitmix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double unitInterval(uint64_t bits) { return static_cast<double>(bits >> 11) * 0x1.0p-53; }

struct FuzzStats {
  uint64_t runs = 0;
  uint64_t swept = 0;     ///< sweeps that actually ran
  uint64_t rejected = 0;  ///< option mutations refused as InvalidArgument
  uint64_t faulted = 0;   ///< runs with the injector attached
  uint64_t journals = 0;  ///< journal-mutation iterations
  uint64_t observed = 0;  ///< sweeps re-run with an observed VCO output
  uint64_t forked = 0;    ///< sweeps re-run on the farm and point by point
  uint64_t detector_observed = 0;  ///< sweeps re-run with observed detector nets
  uint64_t cut = 0;  ///< sweeps re-run on the farm with their runs cut
  uint64_t listened = 0;  ///< sweeps re-run with the loop hearing the stimulus net
};

[[noreturn]] void fail(uint64_t seed, const char* invariant, const std::string& detail) {
  std::fprintf(stderr, "fuzz_sweep: INVARIANT VIOLATION [seed 0x%016llx] %s: %s\n",
               static_cast<unsigned long long>(seed), invariant, detail.c_str());
  std::abort();
}

void requireFinite(uint64_t seed, const char* what, double v) {
  if (!std::isfinite(v)) fail(seed, "finite", std::string(what) + " is not finite");
}

// The Status taxonomy is total: every kind the library can produce has a
// name, and kindName never falls through to a placeholder.
void requireTaxonomy(uint64_t seed, const Status& s, const char* where) {
  const char* name = Status::kindName(s.kind());
  if (name == nullptr || *name == '\0' || std::strcmp(name, "unknown") == 0)
    fail(seed, "status-taxonomy", std::string(where) + ": unnamed status kind");
}

bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool sameStatus(const Status& a, const Status& b) {
  return a.kind() == b.kind() && a.toString() == b.toString();
}

bool samePoint(const pllbist::bist::MeasuredPoint& p, const pllbist::bist::MeasuredPoint& q) {
  return sameBits(p.modulation_hz, q.modulation_hz) && sameBits(p.deviation_hz, q.deviation_hz) &&
         sameBits(p.phase_deg, q.phase_deg) &&
         sameBits(p.unity_gain_deviation_hz, q.unity_gain_deviation_hz) &&
         p.timed_out == q.timed_out && p.quality == q.quality && p.attempts == q.attempts &&
         sameStatus(p.status, q.status);
}

bool sameQualityCounts(const pllbist::bist::SweepQualityReport& r,
                       const pllbist::bist::SweepQualityReport& t) {
  return r.points_total == t.points_total && r.ok == t.ok && r.retried == t.retried &&
         r.degraded == t.degraded && r.dropped == t.dropped &&
         r.attempts_total == t.attempts_total && r.relocks == t.relocks &&
         r.relock_failures == t.relock_failures;
}

// Invariant 6: the first difference between two runs of one case in
// points, statuses or quality report (timing fields excluded); empty when
// they are bit-identical.
std::string measurementDiff(const pllbist::bist::ResilientResponse& a,
                            const pllbist::bist::ResilientResponse& b) {
  if (!sameStatus(a.status, b.status)) return "sweep status";
  if (!sameBits(a.response.nominal_vco_hz, b.response.nominal_vco_hz)) return "nominal_vco_hz";
  if (!sameBits(a.response.static_reference_deviation_hz,
                b.response.static_reference_deviation_hz))
    return "static_reference_deviation_hz";
  if (a.response.points.size() != b.response.points.size()) return "point count";
  for (std::size_t i = 0; i < a.response.points.size(); ++i)
    if (!samePoint(a.response.points[i], b.response.points[i]))
      return "point " + std::to_string(i);
  if (!sameQualityCounts(a.report, b.report) || !sameBits(a.report.sim_time_s, b.report.sim_time_s))
    return "quality report: " + a.report.summary() + " vs " + b.report.summary();
  return "";
}

using BenchHook = std::function<void(std::size_t, pllbist::bist::SweepTestbench&)>;

// Invariant 7: the first difference between the farm and its slow path —
// each point as a standalone single-point engine that runs the prelude
// itself, with `hook` fired at attempt 0 where the farm fires it on the
// fork; empty when they agree bit for bit.
std::string forkDiff(const pllbist::pll::PllConfig& config,
                     const pllbist::bist::SweepOptions& sweep,
                     const pllbist::bist::ResilientSweepOptions& resilience, const BenchHook& hook) {
  namespace bist = pllbist::bist;
  bist::ParallelSweepOptions popt;
  popt.jobs = 1;
  popt.resilience = resilience;
  bist::ParallelSweep farm(config, sweep, popt);
  farm.onPointTestbench(hook);
  const bist::ResilientResponse merged = farm.run();

  bist::ResilientSweep source(config, bist::singlePointOptions(sweep, 0), resilience);
  const std::unique_ptr<bist::SweepTestbench> source_bench = source.makeBench();
  const bist::ResilientSweep::Prelude prelude = source.runPrelude(*source_bench);
  if (!sameBits(merged.response.nominal_vco_hz, prelude.nominal_vco_hz)) return "nominal_vco_hz";
  bist::BenchStats want = prelude.end.bench;
  double want_sim_s = prelude.end.sim_time_s;
  bist::SweepQualityReport want_report;
  const std::size_t n = sweep.modulation_frequencies_hz.size();
  if (merged.response.points.size() != n) return "farm point count";
  for (std::size_t i = 0; i < n; ++i) {
    bist::ResilientSweep engine(config, bist::singlePointOptions(sweep, i), resilience);
    engine.onAttemptStart([&](std::size_t, int attempt, bist::SweepTestbench& tb) {
      if (attempt == 0) hook(i, tb);
    });
    const bist::ResilientResponse alone = engine.run();
    if (alone.response.points.size() != 1) return "standalone point " + std::to_string(i);
    const bist::MeasuredPoint& p = alone.response.points.front();
    if (!samePoint(merged.response.points[i], p)) return "point " + std::to_string(i);
    want.add(alone.bench.since(prelude.end.bench));
    want_sim_s += alone.report.sim_time_s - prelude.end.sim_time_s;
    want_report.count(p);
    want_report.relocks += alone.report.relocks;
    want_report.relock_failures += alone.report.relock_failures;
  }
  if (!sameQualityCounts(merged.report, want_report))
    return "quality counts: " + merged.report.summary() + " vs " + want_report.summary();
  if (merged.bench.events_processed != want.events_processed ||
      merged.bench.events_delivered != want.events_delivered ||
      merged.bench.events_dropped != want.events_dropped ||
      merged.bench.events_delayed != want.events_delayed ||
      merged.bench.events_swallowed != want.events_swallowed ||
      merged.bench.faults_considered != want.faults_considered)
    return "kernel counts: farm processed " + std::to_string(merged.bench.events_processed) +
           ", P + sum(S_i - P) = " + std::to_string(want.events_processed);
  if (!sameBits(merged.report.sim_time_s, want_sim_s)) return "sim_time_s";
  return "";
}

// Invariant 9: a no-op closure that reschedules itself after a seeded
// random gap in (0, max_gap_s]; each of its events ends a run-ahead.
struct RunCutter {
  pllbist::sim::Circuit* circuit;
  uint64_t state;
  double max_gap_s;
  void operator()(double now) {
    RunCutter next = *this;
    const double gap = max_gap_s * (1.0 - unitInterval(splitmix64(next.state)));
    circuit->scheduleCallback(now + gap, next);
  }
};

// Invariant 9: the first difference between the farm as it is and the farm
// with every point's runs cut at seeded random instants; empty when they
// agree bit for bit.
std::string cutDiff(const pllbist::pll::PllConfig& config, const pllbist::bist::SweepOptions& sweep,
                    const pllbist::bist::ResilientSweepOptions& resilience, const BenchHook& hook,
                    uint64_t cut_seed) {
  namespace bist = pllbist::bist;
  auto farmRun = [&](bool cut) {
    bist::ParallelSweepOptions popt;
    popt.jobs = 1;
    popt.resilience = resilience;
    bist::ParallelSweep farm(config, sweep, popt);
    farm.onPointTestbench([&, cut](std::size_t i, bist::SweepTestbench& tb) {
      hook(i, tb);
      if (!cut) return;
      RunCutter first{&tb.circuit(), bist::pointSeed(cut_seed, i), 4.0 / config.ref_frequency_hz};
      first(tb.circuit().now());
    });
    return farm.run();
  };
  return measurementDiff(farmRun(false), farmRun(true));
}

// Invariant 5: journal-mutation fuzz. Synthesize a valid checkpoint
// journal from the seed stream, apply one structured mutation, and hold
// the loader to its fail-closed contract: parse succeeds with unique
// in-range indices, or fails as InvalidArgument — and parsing is a pure
// function (same text twice -> same outcome).
void fuzzJournal(uint64_t seed, uint64_t& state, FuzzStats& st) {
  namespace core = pllbist::core;
  ++st.journals;

  core::CheckpointHeader hdr;
  hdr.tool = "fuzz_sweep";
  hdr.device = "fuzz";
  hdr.stimulus = "multi-tone-fsk";
  hdr.config_digest = splitmix64(state) | 1;
  const std::size_t n = 2 + splitmix64(state) % 6;  // 2..7 records
  hdr.points_total = n;

  std::vector<std::string> lines;
  for (std::size_t i = 0; i < n; ++i) {
    core::CheckpointRecord rec;
    rec.index = i;
    pllbist::bist::MeasuredPoint& point = rec.result.response.points.emplace_back();
    point.modulation_hz = 10.0 + 5.0 * static_cast<double>(i);
    point.deviation_hz = 100.0 + 400.0 * unitInterval(splitmix64(state));
    point.phase_deg = -180.0 * unitInterval(splitmix64(state));
    point.attempts = 1 + static_cast<int>(splitmix64(state) % 3);
    rec.result.response.nominal_vco_hz = 1e5;
    rec.result.response.static_reference_deviation_hz = 1000.0;
    rec.result.report.sim_time_s = 0.25 * unitInterval(splitmix64(state));
    rec.result.bench.events_processed = static_cast<long long>(splitmix64(state) % 100000);
    rec.result.bench.events_delivered = rec.result.bench.events_processed;
    lines.push_back(core::JournalWriter::recordLine(rec));
  }
  std::string text = core::JournalWriter::headerLine(hdr) + "\n";
  for (const std::string& l : lines) text += l + "\n";

  const unsigned mutation = static_cast<unsigned>(splitmix64(state) % 8);
  bool expect_ok = false, expect_torn = false, expect_fail = false;
  std::size_t expect_records = 0;
  switch (mutation) {
    case 0:  // untouched: must load completely
      expect_ok = true;
      expect_records = n;
      break;
    case 1: {  // torn tail: chop 1..len bytes off the final line
      const std::size_t chop = 1 + splitmix64(state) % lines.back().size();
      text.resize(text.size() - chop);
      expect_ok = expect_torn = true;
      expect_records = n - 1;
      break;
    }
    case 2:  // duplicated record: keep-first, still n unique
      text += lines[splitmix64(state) % n] + "\n";
      expect_ok = true;
      expect_records = n;
      break;
    case 3: {  // reordered records: indices are explicit, order is free
      const std::size_t a = splitmix64(state) % n, b = splitmix64(state) % n;
      std::string reordered = core::JournalWriter::headerLine(hdr) + "\n";
      std::vector<std::string> shuffled = lines;
      std::swap(shuffled[a], shuffled[b]);
      for (const std::string& l : shuffled) reordered += l + "\n";
      text = reordered;
      expect_ok = true;
      expect_records = n;
      break;
    }
    case 4: {  // bit flip anywhere: any classification but never a crash
      const std::size_t pos = splitmix64(state) % text.size();
      text[pos] = static_cast<char>(text[pos] ^ static_cast<char>(1u << (splitmix64(state) % 8)));
      break;
    }
    case 5:  // beheaded: first line is a record, not a header
      text = text.substr(text.find('\n') + 1);
      expect_fail = true;
      break;
    case 6: {  // digest corrupt: parses, but the header check must refuse
      core::CheckpointHeader wrong = hdr;
      wrong.config_digest ^= 0x10;
      text = core::JournalWriter::headerLine(wrong) + "\n";
      for (const std::string& l : lines) text += l + "\n";
      expect_ok = true;
      expect_records = n;
      break;
    }
    case 7:  // arbitrary prefix: clean cut, torn cut, or a dead header
      text.resize(splitmix64(state) % (text.size() + 1));
      break;
  }

  core::JournalLoadResult loaded;
  const Status parsed = core::parseJournal(text, loaded);
  requireTaxonomy(seed, parsed, "parseJournal");
  if (!parsed.ok() && parsed.kind() != Status::Kind::InvalidArgument)
    fail(seed, "journal-failclosed", "loader rejection is not InvalidArgument: " +
                                         parsed.toString());
  if (expect_fail && parsed.ok())
    fail(seed, "journal-failclosed", "beheaded journal was accepted");
  if (expect_ok) {
    if (!parsed.ok())
      fail(seed, "journal-failclosed",
           "mutation " + std::to_string(mutation) + " should load: " + parsed.toString());
    if (loaded.records.size() != expect_records)
      fail(seed, "journal-exactly-once",
           "mutation " + std::to_string(mutation) + ": expected " +
               std::to_string(expect_records) + " records, got " +
               std::to_string(loaded.records.size()));
    if (expect_torn != loaded.torn_tail)
      fail(seed, "journal-exactly-once", "torn-tail flag wrong for mutation " +
                                             std::to_string(mutation));
  }
  if (parsed.ok()) {
    // Exactly-once: indices unique and inside the campaign.
    std::vector<bool> seen(loaded.header.points_total, false);
    for (const core::CheckpointRecord& r : loaded.records) {
      if (r.index >= loaded.header.points_total)
        fail(seed, "journal-exactly-once", "record index out of range");
      if (seen[r.index]) fail(seed, "journal-exactly-once", "duplicate index survived loading");
      seen[r.index] = true;
    }
    if (loaded.clean_bytes > text.size())
      fail(seed, "journal-exactly-once", "clean_bytes beyond the file");
    // The campaign identity check is itself total: ok or InvalidArgument.
    const Status ident =
        core::checkJournalHeader(loaded.header, hdr.config_digest, hdr.points_total);
    requireTaxonomy(seed, ident, "checkJournalHeader");
    if (!ident.ok() && ident.kind() != Status::Kind::InvalidArgument)
      fail(seed, "journal-failclosed", "identity rejection is not InvalidArgument");
    if (mutation == 6 && ident.ok())
      fail(seed, "journal-failclosed", "corrupt config digest was accepted");
  }
  // Purity: loading the same bytes again classifies identically.
  core::JournalLoadResult again;
  const Status reparsed = core::parseJournal(text, again);
  if (reparsed.kind() != parsed.kind() || again.records.size() != loaded.records.size() ||
      again.torn_tail != loaded.torn_tail)
    fail(seed, "journal-failclosed", "parseJournal is not deterministic");
}

// One fuzz iteration. `data` seeds a splitmix64 stream; the stream picks
// the device, mutates the sweep options (sometimes into invalid shapes on
// purpose) and decides the fault choreography. Returns stats deltas via
// `st`.
void fuzzOne(const uint8_t* data, size_t size, FuzzStats& st) {
  ++st.runs;
  uint64_t seed = pllbist::obs::fnv1a64(
      std::string_view(reinterpret_cast<const char*>(data), size));
  if (seed == 0) seed = 1;
  uint64_t state = seed;

  // Journal mutations are pure CPU (no simulation), so every iteration
  // fuzzes the loader alongside the sweep stack.
  fuzzJournal(seed, state, st);

  // Device from the same seeded family as the golden differential suite:
  // fn in [120, 420] Hz, zeta in [0.3, 1.5], both pump kinds.
  const pllbist::golden::SeededConfig device = pllbist::golden::seededRandomConfig(seed);
  const pllbist::pll::PllConfig& config = device.config;

  pllbist::bist::SweepOptions sweep = pllbist::bist::quickSweepOptions(
      config, pllbist::bist::StimulusKind::MultiToneFsk, 3);
  sweep.modulation_frequencies_hz = {0.3 * device.fn_hz, 1.0 * device.fn_hz,
                                     2.0 * device.fn_hz};
  sweep.jitter_seed = static_cast<unsigned>(seed);

  // Structured mutations. Each draw perturbs one knob; a slice of the
  // space is deliberately invalid to exercise the rejection path.
  const uint64_t knobs = splitmix64(state);
  sweep.fm_steps = 4 + static_cast<int>(splitmix64(state) % 37);  // 4..40
  sweep.deviation_hz *= 0.25 + 3.75 * unitInterval(splitmix64(state));
  if ((knobs & 0x01) != 0) sweep.master_clock_hz *= ((knobs & 0x02) != 0) ? 2.0 : 0.5;
  if ((knobs & 0x04) != 0)
    sweep.sequencer.settle_periods = 1 + static_cast<int>(splitmix64(state) % 6);
  if ((knobs & 0x08) != 0)
    sweep.sequencer.average_periods = 1 + static_cast<int>(splitmix64(state) % 8);

  const unsigned poison = static_cast<unsigned>(splitmix64(state) % 16);
  switch (poison) {
    case 0: sweep.deviation_hz = -sweep.deviation_hz; break;          // negative depth
    case 1: sweep.modulation_frequencies_hz.clear(); break;           // empty plan
    case 2:                                                           // descending plan
      std::swap(sweep.modulation_frequencies_hz.front(), sweep.modulation_frequencies_hz.back());
      break;
    case 3: sweep.fm_steps = 0; break;                                // no FSK slots
    case 4: sweep.deviation_hz = 2.0 * config.ref_frequency_hz; break;  // DCO wraps 0 Hz
    default: break;  // leave valid
  }

  // Invariant 2 (rejection path): a bad plan must come back as a named
  // InvalidArgument, never crash and never pass.
  const Status precheck = sweep.check(config);
  requireTaxonomy(seed, precheck, "SweepOptions::check");
  if (!precheck.ok()) {
    if (precheck.kind() != Status::Kind::InvalidArgument)
      fail(seed, "status-taxonomy",
           "option rejection is not InvalidArgument: " + precheck.toString());
    ++st.rejected;
    return;
  }
  if (poison <= 4)
    fail(seed, "status-taxonomy", "poisoned options passed SweepOptions::check");

  pllbist::bist::ResilientSweepOptions resilience;
  resilience.max_attempts = 2;

  // Fault choreography on a slice of the runs: drop or stick the divided
  // output under the sweep and require the taxonomy to absorb it.
  const uint64_t fault_draw = splitmix64(state);
  const bool inject = (fault_draw & 0x03) == 0;  // ~25% of valid runs
  double drop_p = 0.0;
  uint64_t inj_seed = 0;
  if (inject) {
    ++st.faulted;
    drop_p = 0.05 + 0.30 * unitInterval(splitmix64(state));
    inj_seed = splitmix64(state) | 1;
  }
  const bool observer_check = (splitmix64(state) & 0x03) == 0;  // ~25% of valid runs
  const bool fork_check = (splitmix64(state) & 0x03) == 0;      // ~25% of valid runs
  const bool detector_check = (splitmix64(state) & 0x03) == 0;  // ~25% of valid runs
  const bool cut_check = (splitmix64(state) & 0x03) == 0;       // ~25% of valid runs
  // A second rule on the injector would shift the fault rules' draws.
  const bool listen_check = (splitmix64(state) & 0x03) == 0 && !inject;

  auto attachFaults = [=](pllbist::bist::SweepTestbench& tb, uint64_t injector_seed) {
    if (!inject) return;
    pllbist::sim::FaultInjector& inj = tb.faultInjector(injector_seed);
    if ((fault_draw & 0x04) != 0)
      inj.dropEdges(tb.mfreq(), drop_p);
    else
      inj.delayEdges(tb.mfreq(), drop_p, 1e-7, 1e-5);
  };
  enum class Observe { Nothing, VcoOut, DetectorNets, StimulusRule };
  auto sweepOnce = [&](Observe observe) {
    pllbist::bist::ResilientSweep engine(config, sweep, resilience);
    engine.onTestbench([=](pllbist::bist::SweepTestbench& tb) {
      std::vector<pllbist::sim::SignalId> nets;
      if (observe == Observe::VcoOut) nets = {tb.pll().vcoOut()};
      if (observe == Observe::DetectorNets)
        nets = {tb.peakDetector().monitorUp(),    tb.peakDetector().monitorDn(),
                tb.peakDetector().monitorReset(), tb.pll().pfdReset(),
                tb.pll().ref(),                   tb.pll().feedback(),
                tb.pll().pfdFeedbackIn(),         tb.pll().pfdUp(),
                tb.pll().pfdDn(),                 tb.stimulusOut()};
      for (const pllbist::sim::SignalId net : nets)
        tb.circuit().onChange(net, [](double, bool) {});
      if (observe == Observe::StimulusRule) tb.faultInjector(1).dropEdges(tb.stimulusOut(), 0.0);
      attachFaults(tb, inj_seed);
    });
    return engine.run();
  };

  const pllbist::bist::ResilientResponse result = sweepOnce(Observe::Nothing);
  ++st.swept;

  // Invariant 2 (result path): every status the stack produced is named.
  requireTaxonomy(seed, result.status, "sweep status");
  for (const pllbist::bist::MeasuredPoint& p : result.response.points) {
    requireTaxonomy(seed, p.status, "point status");
    const char* q = to_string(p.quality);
    if (q == nullptr || *q == '\0')
      fail(seed, "status-taxonomy", "unnamed point quality");
    // Invariant 1: no NaN/Inf escapes a measurement, timed out or not.
    requireFinite(seed, "modulation_hz", p.modulation_hz);
    requireFinite(seed, "deviation_hz", p.deviation_hz);
    requireFinite(seed, "phase_deg", p.phase_deg);
    requireFinite(seed, "unity_gain_deviation_hz", p.unity_gain_deviation_hz);
    requireFinite(seed, "wall_time_s", p.wall_time_s);
    if (p.attempts < 1) fail(seed, "quality-rollup", "point consumed < 1 attempt");
  }
  requireFinite(seed, "nominal_vco_hz", result.response.nominal_vco_hz);
  requireFinite(seed, "static_reference_deviation_hz",
                result.response.static_reference_deviation_hz);

  // Invariant 3: the quality roll-up counters agree with themselves and
  // with the measured points.
  const pllbist::bist::SweepQualityReport& rep = result.report;
  const int classified = rep.ok + rep.retried + rep.degraded + rep.dropped;
  if (classified != rep.points_total)
    fail(seed, "quality-rollup",
         "ok+retried+degraded+dropped = " + std::to_string(classified) + " != points_total = " +
             std::to_string(rep.points_total));
  if (rep.points_total != static_cast<int>(result.response.points.size()))
    fail(seed, "quality-rollup", "points_total disagrees with response.points.size()");
  if (rep.attempts_total < rep.points_total)
    fail(seed, "quality-rollup", "attempts_total < points_total");
  if (rep.usable() != rep.points_total - rep.dropped)
    fail(seed, "quality-rollup", "usable() != points_total - dropped");
  requireFinite(seed, "sim_time_s", rep.sim_time_s);
  requireFinite(seed, "wall_time_s", rep.wall_time_s);

  // Invariant 4: the consolidated report round-trips through the PR-3
  // parser and re-serialises to a fixpoint.
  const pllbist::obs::RunReport run =
      pllbist::core::buildRunReport("fuzz_sweep", "fuzz", config, sweep, -1, result,
                                    pllbist::obs::MetricsRegistry::global().snapshot());
  const std::string text = run.toJson();
  pllbist::obs::JsonValue root;
  const Status parsed = pllbist::obs::parseJson(text, root);
  if (!parsed.ok()) fail(seed, "report-roundtrip", "toJson unparseable: " + parsed.toString());
  const Status valid = pllbist::obs::validateRunReportJson(root);
  if (!valid.ok()) fail(seed, "report-roundtrip", "schema violation: " + valid.toString());
  const std::string dumped = root.dump();
  pllbist::obs::JsonValue again;
  if (!pllbist::obs::parseJson(dumped, again).ok())
    fail(seed, "report-roundtrip", "canonical dump unparseable");
  if (again.dump() != dumped) fail(seed, "report-roundtrip", "dump -> parse -> dump not a fixpoint");
  pllbist::obs::stripTimingFields(again);
  if (!pllbist::obs::validateRunReportJson(again).ok())
    fail(seed, "report-roundtrip", "stripped report no longer validates");

  // Invariant 6: the materialised VCO output is the slow path of the
  // skipped one; only kernel event counts may tell them apart.
  if (observer_check) {
    ++st.observed;
    const std::string diff = measurementDiff(result, sweepOnce(Observe::VcoOut));
    if (!diff.empty()) fail(seed, "observer-invariance", diff);
  }

  // Invariant 7: the fork is the standalone point minus a shared prelude.
  // The sweep has no jitter, so the prelude is one simulation for all.
  if (fork_check) {
    ++st.forked;
    const std::string diff =
        forkDiff(config, sweep, resilience, [=](std::size_t i, pllbist::bist::SweepTestbench& tb) {
          attachFaults(tb, pllbist::bist::pointSeed(inj_seed, i));
        });
    if (!diff.empty()) fail(seed, "fork-equivalence", diff);
  }

  // Invariant 8: the detectors' internal nets and the loop's nets are
  // observation taps; only kernel event counts may tell a written one from
  // an unwritten one.
  if (detector_check) {
    ++st.detector_observed;
    const std::string diff = measurementDiff(result, sweepOnce(Observe::DetectorNets));
    if (!diff.empty()) fail(seed, "detector-observer-invariance", diff);
  }

  // Invariant 9: the loop's run-ahead is bounded by every queued event, so
  // events that do nothing but end its runs change no result.
  if (cut_check) {
    ++st.cut;
    const std::string diff =
        cutDiff(config, sweep, resilience,
                [=](std::size_t i, pllbist::bist::SweepTestbench& tb) {
                  attachFaults(tb, pllbist::bist::pointSeed(inj_seed, i));
                },
                splitmix64(state));
    if (!diff.empty()) fail(seed, "run-cut-invariance", diff);
  }

  // Invariant 10: the loop hearing the stimulus net is the slow path of
  // the loop pulling the stimulus source.
  if (listen_check) {
    ++st.listened;
    const std::string diff = measurementDiff(result, sweepOnce(Observe::StimulusRule));
    if (!diff.empty()) fail(seed, "stimulus-listen-invariance", diff);
  }
}

}  // namespace

#if defined(PLLBIST_FUZZ_LIBFUZZER)

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static FuzzStats st;
  fuzzOne(data, size, st);
  return 0;
}

#else  // standalone seeded driver

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--runs N] [--max-seconds S] [--verbose]\n"
               "Deterministic seeded fuzz of the sweep stack; aborts on the first\n"
               "invariant violation. Stops at --runs iterations or the --max-seconds\n"
               "budget, whichever comes first.\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  uint64_t runs = 50;
  double max_seconds = 60.0;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fuzz_sweep: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") seed = std::strtoull(next("--seed"), nullptr, 0);
    else if (arg == "--runs") runs = std::strtoull(next("--runs"), nullptr, 0);
    else if (arg == "--max-seconds") max_seconds = std::strtod(next("--max-seconds"), nullptr);
    else if (arg == "--verbose") verbose = true;
    else return usage(argv[0]);
  }

  const auto t0 = std::chrono::steady_clock::now();
  FuzzStats st;
  for (uint64_t i = 0; i < runs; ++i) {
    uint8_t buf[16];
    const uint64_t a = seed, b = i;
    std::memcpy(buf, &a, 8);
    std::memcpy(buf + 8, &b, 8);
    fuzzOne(buf, sizeof buf, st);
    const double elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    if (verbose)
      std::printf("run %llu/%llu  swept=%llu rejected=%llu faulted=%llu  %.1fs\n",
                  static_cast<unsigned long long>(i + 1), static_cast<unsigned long long>(runs),
                  static_cast<unsigned long long>(st.swept),
                  static_cast<unsigned long long>(st.rejected),
                  static_cast<unsigned long long>(st.faulted), elapsed);
    if (elapsed > max_seconds) break;
  }
  std::printf(
      "fuzz_sweep: %llu runs (%llu swept, %llu rejected, %llu faulted, %llu journals, "
      "%llu observer-checked, %llu fork-checked, %llu detector-observer-checked, "
      "%llu run-cut-checked, %llu stimulus-listen-checked), 0 violations\n",
      static_cast<unsigned long long>(st.runs), static_cast<unsigned long long>(st.swept),
      static_cast<unsigned long long>(st.rejected), static_cast<unsigned long long>(st.faulted),
      static_cast<unsigned long long>(st.journals), static_cast<unsigned long long>(st.observed),
      static_cast<unsigned long long>(st.forked),
      static_cast<unsigned long long>(st.detector_observed),
      static_cast<unsigned long long>(st.cut), static_cast<unsigned long long>(st.listened));
  if (st.swept == 0) {
    std::fprintf(stderr, "fuzz_sweep: no iteration exercised a sweep — widen the budget\n");
    return 1;
  }
  return 0;
}

#endif  // PLLBIST_FUZZ_LIBFUZZER
