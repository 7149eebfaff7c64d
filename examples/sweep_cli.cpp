// Command-line front end: run a BIST sweep or step test on a preset device
// (optionally with an injected fault) and print or export the results.
//
//   sweep_cli [--device reference|fast|current] [--stimulus multi|two|sine|pm]
//             [--points N] [--jobs N] [--fault kind:magnitude] [--step] [--csv file]
//             [--report out.json] [--trace out.trace.json]
//             [--journal j.jsonl] [--resume j.jsonl] [--deadline S]
//             [--point-budget S] [--breaker K]
//
// Examples:
//   sweep_cli --device fast --stimulus multi --points 10
//   sweep_cli --device fast --fault filter-c-drift:0.5 --csv out.csv
//   sweep_cli --device reference --points 12 --jobs 4
//   sweep_cli --device fast --jobs 4 --report r.json --trace t.trace.json
//   sweep_cli --device fast --points 12 --journal run.jsonl --report r.json
//   sweep_cli --device fast --points 12 --journal run.jsonl --resume run.jsonl --report r.json
//   sweep_cli --device current --step
//
// --jobs N runs the sweep on the parallel point farm (one independent
// testbench per frequency point, N worker threads; 0 = one per hardware
// thread). Results are bit-identical for every job count.
//
// --report writes the consolidated RunReport JSON (config digest, per-point
// quality + timing, kernel/fault statistics, full metrics snapshot).
// --trace enables the span tracer and writes a Chrome trace_event file —
// open it in Perfetto (https://ui.perfetto.dev) or chrome://tracing for a
// flame view of the sweep.
//
// Any of --journal/--resume/--deadline/--point-budget/--breaker selects the
// supervised campaign runtime (core::Campaign): a crash-tolerant execution
// with a durable checkpoint journal, digest-verified resume, wall-clock
// budgets and a relock circuit breaker (counted in point order, so it skips
// the same points for every --jobs). A killed campaign resumed with
// `--journal j --resume j` re-runs only the missing points and produces a
// report byte-identical (modulo timing fields) to an uninterrupted run.
//
// SIGINT/SIGTERM request a cooperative stop: the run drains, flushes the
// journal, emits the partial report, and exits 130. The process exit code
// maps the final pllbist::Status (see README "Exit codes"): 0 ok,
// 2 invalid-argument, 3 timeout, 4 lock-lost, 5 relock-failed,
// 6 retry-exhausted, 7 simulation-stall, 8 no-valid-points, 9 degraded,
// 10 internal, 11 deadline-exceeded, 130 cancelled.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/pllbist.hpp"

namespace {

using namespace pllbist;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--device reference|fast|current] [--stimulus multi|two|sine|pm]\n"
               "          [--points N] [--jobs N] [--fault kind:magnitude] [--step] [--csv file]\n"
               "          [--report out.json] [--trace out.trace.json]\n"
               "          [--journal j.jsonl] [--resume j.jsonl] [--deadline seconds]\n"
               "          [--point-budget seconds] [--breaker K]\n"
               "fault kinds: vco-gain-drift vco-center-drift pump-up-weak pump-down-weak\n"
               "             filter-r2-drift filter-c-drift filter-leak pfd-dead-zone\n"
               "             divider-wrong-n\n",
               argv0);
  std::exit(2);
}

// std::stoi/std::stod over the whole of `text`: "3x" is rejected, not read
// as 3. Throws std::invalid_argument or std::out_of_range.
int parseInt(const std::string& text) {
  std::size_t used = 0;
  const int value = std::stoi(text, &used);
  if (used != text.size()) throw std::invalid_argument("not a whole number: " + text);
  return value;
}

double parseDouble(const std::string& text) {
  std::size_t used = 0;
  const double value = std::stod(text, &used);
  if (used != text.size()) throw std::invalid_argument("not a number: " + text);
  return value;
}

pll::FaultSpec parseFault(const std::string& text) {
  const auto colon = text.find(':');
  if (colon == std::string::npos) throw std::invalid_argument("fault needs kind:magnitude");
  const std::string kind = text.substr(0, colon);
  const double magnitude = parseDouble(text.substr(colon + 1));
  using K = pll::FaultSpec::Kind;
  for (K k : {K::VcoGainDrift, K::VcoCenterDrift, K::PumpUpWeak, K::PumpDownWeak,
              K::FilterR2Drift, K::FilterCDrift, K::FilterLeak, K::PfdDeadZone,
              K::DividerWrongN}) {
    if (to_string(k) == kind) return {k, magnitude};
  }
  throw std::invalid_argument("unknown fault kind: " + kind);
}

}  // namespace

int main(int argc, char** argv) {
  std::string device = "fast";
  std::string stimulus = "multi";
  std::string csv_path;
  std::string report_path;
  std::string trace_path;
  std::string journal_path;
  std::string resume_path;
  double deadline_s = 0.0;
  double point_budget_s = 0.0;
  int breaker = 0;
  int points = 10;
  int jobs = -1;  // -1 = serial shared-bench sweep; >= 0 = parallel point farm
  bool step_mode = false;
  std::optional<pll::FaultSpec> fault;

  installStopSignalHandlers();

  std::string arg;  // the option being parsed, for the error message
  try {
    for (int i = 1; i < argc; ++i) {
      arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) usage(argv[0]);
        return argv[++i];
      };
      if (arg == "--device") device = next();
      else if (arg == "--stimulus") stimulus = next();
      else if (arg == "--points") {
        points = parseInt(next());
        if (points < 1) usage(argv[0]);
      }
      else if (arg == "--jobs") {
        jobs = parseInt(next());
        if (jobs < 0) usage(argv[0]);
      }
      else if (arg == "--csv") csv_path = next();
      else if (arg == "--report") report_path = next();
      else if (arg == "--trace") trace_path = next();
      else if (arg == "--fault") fault = parseFault(next());
      else if (arg == "--journal") journal_path = next();
      else if (arg == "--resume") resume_path = next();
      else if (arg == "--deadline") {
        deadline_s = parseDouble(next());
        if (!(deadline_s > 0.0)) usage(argv[0]);  // NaN too
      }
      else if (arg == "--point-budget") {
        point_budget_s = parseDouble(next());
        if (!(point_budget_s > 0.0)) usage(argv[0]);
      }
      else if (arg == "--breaker") {
        breaker = parseInt(next());
        if (breaker < 1) usage(argv[0]);
      }
      else if (arg == "--step") step_mode = true;
      else usage(argv[0]);
    }
  } catch (const std::logic_error& e) {
    // parseInt/parseDouble (invalid_argument, out_of_range) and parseFault.
    std::fprintf(stderr, "%s: invalid value for %s (%s)\n", argv[0], arg.c_str(), e.what());
    usage(argv[0]);
  }

  pll::PllConfig cfg;
  if (device == "reference") cfg = pll::referenceConfig();
  else if (device == "fast") cfg = pll::scaledTestConfig();
  else if (device == "current") cfg = pll::scaledCurrentPumpConfig();
  else usage(argv[0]);

  if (fault) {
    cfg = pll::applyFault(cfg, *fault);
    std::printf("injected fault: %s\n", fault->describe().c_str());
  }

  const control::SecondOrderParams so = cfg.secondOrder();
  std::printf("device %s: fref %.0f Hz, N %d, fn %.2f Hz, zeta %.3f\n", device.c_str(),
              cfg.ref_frequency_hz, cfg.divider_n, radPerSecToHz(so.omega_n_rad_per_s), so.zeta);

  if (step_mode) {
    bist::StepTestOptions opt;
    const double fn = radPerSecToHz(so.omega_n_rad_per_s);
    opt.lock_wait_s = 10.0 / fn;
    opt.freq_gate_s = 10.0 / fn;
    opt.hold_to_gate_delay_s = 2.0 / cfg.ref_frequency_hz;
    const bist::StepTestResult r = bist::runStepTest(cfg, opt);
    std::printf("step test: nominal %.1f Hz, target %.1f Hz, peak %.1f Hz\n", r.nominal_hz,
                r.target_hz, r.peak_hz);
    std::printf("overshoot %.1f%%, peak time %.2f ms, relock %.2f ms%s\n",
                r.overshoot_fraction * 100.0, r.peak_time_s * 1e3, r.relock_time_s * 1e3,
                r.timed_out ? " [TIMEOUT]" : "");
    if (r.zeta) std::printf("extracted zeta %.3f", *r.zeta);
    if (r.natural_frequency_hz) std::printf(", fn %.1f Hz", *r.natural_frequency_hz);
    std::printf("\n");
    return r.timed_out ? exitCode(Status::Kind::Timeout) : 0;
  }

  bist::StimulusKind kind;
  if (stimulus == "multi") kind = bist::StimulusKind::MultiToneFsk;
  else if (stimulus == "two") kind = bist::StimulusKind::TwoToneFsk;
  else if (stimulus == "sine") kind = bist::StimulusKind::PureSineFm;
  else if (stimulus == "pm") kind = bist::StimulusKind::DelayLinePm;
  else usage(argv[0]);

  // Telemetry: metrics are always on (the registry is cheap); the span
  // tracer records only when a trace file was requested. Resetting the
  // registry scopes the RunReport to this run alone.
  obs::MetricsRegistry::global().reset();
  if (!trace_path.empty()) obs::Tracer::global().setEnabled(true);

  // Sweep through the resilient engine: an injected catastrophic fault (or a
  // genuinely broken preset) drops points instead of hanging or throwing.
  // With --jobs the same sweep runs on the parallel point farm instead.
  const bist::SweepOptions sweep_opt = bist::quickSweepOptions(cfg, kind, points);
  const bool campaign_mode = !journal_path.empty() || !resume_path.empty() || deadline_s > 0.0 ||
                             point_budget_s > 0.0 || breaker > 0;
  bist::ResilientResponse result;
  std::optional<obs::RunReport> campaign_report;
  if (campaign_mode) {
    core::CampaignOptions copt;
    copt.jobs = jobs >= 0 ? jobs : 1;
    copt.resilience.point_budget_s = point_budget_s;
    copt.resilience.relock_breaker = breaker;
    copt.deadline_s = deadline_s;
    copt.journal_path = journal_path;
    copt.resume_path = resume_path;
    copt.tool = "sweep_cli";
    copt.device = device;
    core::Campaign campaign(cfg, sweep_opt, copt);
    campaign.chainStop(&globalStopSource());
    campaign.onPointMeasured([](std::size_t index, const bist::MeasuredPoint& p) {
      std::printf("  [%2zu] fm %8.3f Hz  deviation %9.2f Hz  phase %8.2f deg  [%s]\n", index,
                  p.modulation_hz, p.deviation_hz, p.phase_deg, bist::to_string(p.quality));
    });
    core::CampaignResult cres = campaign.run();
    if (cres.status.kind() == Status::Kind::InvalidArgument) {
      std::fprintf(stderr, "campaign rejected: %s\n", cres.status.toString().c_str());
      return exitCode(cres.status);
    }
    std::printf("campaign: %d executed, %d resumed%s%s%s%s\n", cres.points_executed,
                cres.points_resumed, cres.torn_tail_repaired ? ", torn journal tail repaired" : "",
                cres.deadline_hit ? ", deadline hit" : "",
                cres.merged.breaker_open ? ", relock breaker open" : "",
                cres.stop_requested && !cres.deadline_hit ? ", stopped" : "");
    result = std::move(cres.merged);
    campaign_report = std::move(cres.report);
  } else if (jobs >= 0) {
    bist::ParallelSweepOptions popt;
    popt.jobs = jobs;
    bist::ParallelSweep engine(cfg, sweep_opt, popt);
    engine.chainStop(&globalStopSource());
    engine.onPointMeasured([](std::size_t index, const bist::MeasuredPoint& p) {
      std::printf("  [%2zu] fm %8.3f Hz  deviation %9.2f Hz  phase %8.2f deg  [%s]\n", index,
                  p.modulation_hz, p.deviation_hz, p.phase_deg, bist::to_string(p.quality));
    });
    result = engine.run();
    std::printf("parallel farm: %d requested jobs, %.2f s simulated in %.2f s wall\n", jobs,
                result.report.sim_time_s, result.report.wall_time_s);
  } else {
    bist::ResilientSweep engine(cfg, sweep_opt);
    engine.attachStop(&globalStopSource());
    engine.onPointMeasured([](const bist::MeasuredPoint& p) {
      std::printf("  fm %8.3f Hz  deviation %9.2f Hz  phase %8.2f deg  [%s]\n", p.modulation_hz,
                  p.deviation_hz, p.phase_deg, bist::to_string(p.quality));
    });
    result = engine.run();
  }
  const bist::MeasuredResponse& measured = result.response;

  std::printf("sweep quality: %s\n", result.report.summary().c_str());

  // Export telemetry before the pass/fail verdict so a failed sweep still
  // leaves its report and trace behind for diagnosis.
  if (!report_path.empty()) {
    // A campaign's report carries a metrics block derived from its points
    // (so a resumed run's report matches an uninterrupted one); engine runs
    // report the registry, which was reset before the run.
    const obs::RunReport report =
        campaign_report ? *campaign_report
                        : core::buildRunReport("sweep_cli", device, cfg, sweep_opt, jobs, result,
                                               obs::MetricsRegistry::global().snapshot());
    std::ofstream out(report_path);
    report.writeJson(out);
    std::printf("wrote %s (RunReport %s, digest 0x%016llx)\n", report_path.c_str(),
                obs::kRunReportSchema, static_cast<unsigned long long>(report.config_digest));
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    obs::Tracer::global().writeChromeTrace(out);
    std::printf("wrote %s (%zu spans; open in Perfetto or chrome://tracing)\n", trace_path.c_str(),
                obs::Tracer::global().records().size());
  }

  if (!result.status.ok() || result.report.usable() == 0) {
    std::printf("sweep failed: %s\n",
                result.status.ok() ? "no usable points" : result.status.toString().c_str());
    return exitCode(result.status.ok() ? Status::Kind::NoValidPoints : result.status.kind());
  }
  const control::BodeResponse bode = measured.toBode();
  const bist::ExtractedParameters p = bist::extractParameters(bode);

  std::printf("nominal %.2f Hz, DC reference deviation %.2f Hz\n", measured.nominal_vco_hz,
              measured.static_reference_deviation_hz);
  std::printf("peak %.2f dB at %.2f Hz", p.peaking_db, p.peak_frequency_hz);
  if (p.zeta) std::printf(", zeta %.3f", *p.zeta);
  if (p.natural_frequency_hz) std::printf(", fn %.2f Hz", *p.natural_frequency_hz);
  if (p.natural_frequency_from_phase_hz)
    std::printf(" (phase-based %.2f Hz)", *p.natural_frequency_from_phase_hz);
  if (p.bandwidth_3db_hz) std::printf(", f3dB %.2f Hz", *p.bandwidth_3db_hz);
  std::printf("\n");

  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    csv << "fm_hz,magnitude_db,phase_deg\n";
    for (const control::BodePoint& bp : bode.points())
      csv << radPerSecToHz(bp.omega_rad_per_s) << ',' << bp.magnitude_db << ',' << bp.phase_deg
          << '\n';
    std::printf("wrote %s (%zu points)\n", csv_path.c_str(), bode.size());
  }
  return 0;
}
