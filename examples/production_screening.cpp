// Production screening scenario: an embedded clock-synthesis PLL on a
// digital SoC must be screened with no analog test access. A TestPlan is
// characterised once on a golden device, then each DUT runs the on-chip
// BIST and its transfer-function signature is compared against limits —
// exactly the "comparison against on-chip limits" flow the paper proposes.
//
//   production_screening [--jobs N] [--report lot.json]
//
// --jobs N screens the lot on N worker threads (0 = one per hardware
// thread; default 1 = serial). Each DUT's screen builds its own simulated
// testbench, so the lot is embarrassingly parallel; verdicts are printed
// in lot order either way.
//
// --report writes a lot-level JSON report: one verdict row per DUT plus
// the full telemetry snapshot (kernel event counters, per-point latency
// histogram) accumulated across every screen in the lot.
//
// SIGINT/SIGTERM stop the lot cooperatively: the in-flight DUT screens
// drain, unscreened DUTs are reported as skipped, and the process exits
// with code 130 (exitCode(Status::Kind::Cancelled)). A second signal
// force-kills. Exit codes: 0 = lot screened, 2 = bad usage,
// 130 = interrupted.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "common/stop_token.hpp"
#include "core/testplan.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "pll/config.hpp"
#include "pll/faults.hpp"

int main(int argc, char** argv) {
  using namespace pllbist;

  installStopSignalHandlers();
  int jobs = 1;
  std::string report_path;
  auto usage = [&] {
    std::fprintf(stderr, "usage: %s [--jobs N] [--report lot.json]\n", argv[0]);
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      // A whole non-negative decimal number; atoi would read "abc" as 0
      // (one job per hardware thread).
      const char* text = argv[++i];
      char* end = nullptr;
      const long value = std::strtol(text, &end, 10);
      if (end == text || *end != '\0' || value < 0 || value > std::numeric_limits<int>::max())
        return usage();
      jobs = static_cast<int>(value);
    } else if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      report_path = argv[++i];
    } else {
      return usage();
    }
  }

  // Scope the telemetry snapshot in the lot report to this process's work
  // (golden characterisation included — it is part of the screening cost).
  obs::MetricsRegistry::global().reset();

  const pll::PllConfig golden = pll::scaledTestConfig(200.0, 0.43);
  const bist::SweepOptions sweep =
      bist::quickSweepOptions(golden, bist::StimulusKind::MultiToneFsk, 8);

  std::printf("Characterising golden device (fn = 200 Hz, zeta = 0.43)...\n");
  const core::TestPlan plan(golden, sweep, /*tolerance=*/0.2);
  const auto& gp = plan.goldenParameters();
  std::printf("golden signature: fn = %.1f Hz, zeta = %.3f, f3dB = %.1f Hz, peaking %.2f dB\n\n",
              gp.natural_frequency_hz.value_or(0.0), gp.zeta.value_or(0.0),
              gp.bandwidth_3db_hz.value_or(0.0), gp.peaking_db);

  // A small "lot": one good device plus a spread of process escapes.
  struct Dut {
    const char* name;
    pll::FaultSpec fault;
  };
  const Dut lot[] = {
      {"DUT-01 (good)", {pll::FaultSpec::Kind::None, 0.0}},
      {"DUT-02 (VCO gain -50%)", {pll::FaultSpec::Kind::VcoGainDrift, 0.5}},
      {"DUT-03 (filter C +100%)", {pll::FaultSpec::Kind::FilterCDrift, 2.0}},
      {"DUT-04 (R2 open-ish, x3)", {pll::FaultSpec::Kind::FilterR2Drift, 3.0}},
      {"DUT-05 (weak up pump)", {pll::FaultSpec::Kind::PumpUpWeak, 0.4}},
      {"DUT-06 (2 Mohm filter leak)", {pll::FaultSpec::Kind::FilterLeak, 2e6}},
      {"DUT-07 (good, slow corner -5%)", {pll::FaultSpec::Kind::VcoGainDrift, 0.95}},
  };
  const std::size_t lot_size = std::size(lot);

  // Screen the lot. TestPlan::screen is const and each call builds a fresh
  // simulated testbench, so DUTs can be farmed out to worker threads; the
  // results vector keeps lot order regardless of completion order.
  std::vector<core::TestPlan::DutResult> results(lot_size);
  if (jobs == 0) jobs = static_cast<int>(std::thread::hardware_concurrency());
  if (jobs < 1) jobs = 1;
  if (jobs > static_cast<int>(lot_size)) jobs = static_cast<int>(lot_size);
  std::vector<char> screened(lot_size, 0);
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    // Stop is checked before each claim: Ctrl-C lets in-flight screens
    // drain but leaves the rest of the lot unscreened (reported below).
    while (!globalStopSource().stopRequested()) {
      const std::size_t i = next.fetch_add(1);
      if (i >= lot_size) return;
      results[i] = plan.screen(pll::applyFault(golden, lot[i].fault));
      screened[i] = 1;
    }
  };
  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    for (int t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
    std::printf("screened %zu DUTs on %d worker threads\n\n", lot_size, jobs);
  }

  const bool stopped = globalStopSource().stopRequested();
  std::printf("%-28s %9s %8s %9s  %s\n", "device", "fn (Hz)", "zeta", "verdict", "reason");
  int passed = 0, failed = 0, skipped = 0;
  for (std::size_t i = 0; i < lot_size; ++i) {
    if (!screened[i]) {
      ++skipped;
      std::printf("%-28s %9s %8s %9s  %s\n", lot[i].name, "-", "-", "SKIPPED", "stop requested");
      continue;
    }
    const core::TestPlan::DutResult& r = results[i];
    (r.verdict.pass ? passed : failed)++;
    std::printf("%-28s %9.1f %8.3f %9s  %s\n", lot[i].name,
                r.parameters.natural_frequency_hz.value_or(0.0), r.parameters.zeta.value_or(0.0),
                r.verdict.pass ? "PASS" : "FAIL",
                r.verdict.failures.empty() ? "-" : r.verdict.failures.front().c_str());
  }
  if (skipped > 0)
    std::printf("\nlot summary: %d passed, %d failed, %d skipped (interrupted)\n", passed, failed,
                skipped);
  else
    std::printf("\nlot summary: %d passed, %d failed\n", passed, failed);

  if (!report_path.empty()) {
    std::ofstream out(report_path);
    obs::JsonWriter w(out);
    w.beginObject();
    w.key("schema").value("pllbist.lot_report/1");
    w.key("tool").value("production_screening");
    w.key("jobs").value(jobs);
    w.key("duts").beginArray();
    for (std::size_t i = 0; i < lot_size; ++i) {
      const core::TestPlan::DutResult& r = results[i];
      w.beginObject();
      w.key("name").value(lot[i].name);
      if (screened[i]) {
        w.key("fn_hz").value(r.parameters.natural_frequency_hz.value_or(0.0));
        w.key("zeta").value(r.parameters.zeta.value_or(0.0));
        w.key("pass").value(r.verdict.pass);
        w.key("failures").beginArray();
        for (const std::string& f : r.verdict.failures) w.value(f);
        w.endArray();
      } else {
        w.key("skipped").value(true);
      }
      w.endObject();
    }
    w.endArray();
    w.key("summary").beginObject();
    w.key("passed").value(passed);
    w.key("failed").value(failed);
    w.key("skipped").value(skipped);
    w.endObject();
    w.key("metrics");
    obs::writeMetricsJson(w, obs::MetricsRegistry::global().snapshot());
    w.endObject();
    out << '\n';
    std::printf("wrote %s (lot report, %zu DUTs)\n", report_path.c_str(), lot_size);
  }

  if (stopped) {
    std::printf("lot interrupted: %d of %zu DUTs not screened.\n", skipped, lot_size);
    return exitCode(Status::Kind::Cancelled);
  }
  std::printf("expected: DUT-01 and DUT-07 pass (the -5%% corner sits inside the 20%% band),\n"
              "all genuinely defective devices fail.\n");
  return 0;
}
