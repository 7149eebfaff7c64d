// Perf-ledger gate for the point farm: re-runs the farm ledger's fixed
// sweep (BENCH_farm.json: the reference device's 8-point Fig. 11 sweep,
// here at --jobs 1) and fails when a deterministic work count — kernel
// events per point, swallowed events per point (a superseded handler event
// shows here), the loop's work units per point (PFD writes and VCO stops,
// which kernel events no longer count one by one) or simulated seconds per
// point — exceeds the ledger's committed "change" value by more than
// kTolerance. The counts are exact
// and jobs-invariant, so the tolerance only absorbs libm differences
// between hosts; a real regression moves them by far more. Wall-clock
// figures are printed against the ledger for information and never gate.
// A change that lowers a count re-commits the ledger.
//
//   ledger_check <path to BENCH_farm.json>
//
// Exit code: 0 within the ledger, 1 over it, 2 on a usage or ledger error.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "farm_ledger.hpp"
#include "obs/json.hpp"

namespace {

using namespace pllbist;

constexpr double kTolerance = 0.01;  // relative, on the exact counts only
constexpr int kPoints = 8;

/// `ledger.change.<key>`, or nullptr when absent or not a number.
const obs::JsonValue* changeValue(const obs::JsonValue& ledger, const char* key) {
  const obs::JsonValue* change = ledger.find("change");
  if (change == nullptr || !change->isObject()) return nullptr;
  const obs::JsonValue* v = change->find(key);
  return v != nullptr && v->isNumber() ? v : nullptr;
}

/// Gate one exact count; true when it is within the ledger.
bool gate(const char* name, double measured, double committed) {
  const double limit = committed * (1.0 + kTolerance);
  const bool ok = measured <= limit;
  std::printf("  %-17s %14.4f  ledger %14.4f  ", name, measured, committed);
  if (committed > 0.0)
    std::printf("(%+.2f%%, limit +%.0f%%)  %s\n", 100.0 * (measured / committed - 1.0),
                100.0 * kTolerance, ok ? "ok" : "OVER");
  else
    std::printf("(limit %.4f)  %s\n", limit, ok ? "ok" : "OVER");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <path to BENCH_farm.json>\n", argv[0]);
    return 2;
  }
  std::ifstream in(argv[1]);
  std::ostringstream text;
  text << in.rdbuf();
  obs::JsonValue ledger;
  if (!in || !obs::parseJson(text.str(), ledger).ok()) {
    std::fprintf(stderr, "ledger_check: cannot read %s as JSON\n", argv[1]);
    return 2;
  }
  const obs::JsonValue* events = changeValue(ledger, "events_per_point");
  const obs::JsonValue* swallowed = changeValue(ledger, "swallowed_per_point");
  const obs::JsonValue* sim_s = changeValue(ledger, "sim_s_per_point");
  const obs::JsonValue* pfd_writes = changeValue(ledger, "pfd_writes_per_point");
  const obs::JsonValue* vco_stops = changeValue(ledger, "vco_stops_per_point");
  if (events == nullptr || swallowed == nullptr || sim_s == nullptr || pfd_writes == nullptr ||
      vco_stops == nullptr) {
    std::fprintf(stderr,
                 "ledger_check: %s has no change.events_per_point/swallowed_per_point/"
                 "sim_s_per_point/pfd_writes_per_point/vco_stops_per_point\n",
                 argv[1]);
    return 2;
  }

  const bench::FarmRun run =
      bench::runFarm(pll::referenceConfig(), bench::referenceSweepOptions(kPoints), 1);
  const bist::ResilientResponse& r = run.result;
  const bench::FarmFigures f(run, 1, pll::referenceConfig().ref_frequency_hz);

  std::printf("farm ledger check: reference device, %d points, --jobs 1\n", kPoints);
  bool ok = gate("events/point", f.events_per_point, events->number);
  ok = gate("swallowed/point", f.swallowed_per_point, swallowed->number) && ok;
  ok = gate("sim s/point", f.sim_s_per_point, sim_s->number) && ok;
  ok = gate("PFD writes/point", f.pfd_writes_per_point, pfd_writes->number) && ok;
  ok = gate("VCO stops/point", f.vco_stops_per_point, vco_stops->number) && ok;
  const obs::JsonValue* change = ledger.find("change");
  const obs::JsonValue* jobs_1 = change->find("jobs_1");
  const obs::JsonValue* pps = jobs_1 != nullptr ? jobs_1->find("points_per_s") : nullptr;
  if (pps != nullptr && pps->isNumber() && pps->number > 0.0)
    std::printf("  points/s          %14.1f  ledger %14.1f  (x%.2f; wall time, not gated)\n",
                f.points_per_s, pps->number, f.points_per_s / pps->number);
  if (!r.status.ok()) {
    std::printf("ledger_check: the sweep failed: %s\n", r.status.toString().c_str());
    return 1;
  }
  std::printf(ok ? "ledger_check: within the ledger\n"
                 : "ledger_check: FAIL: a deterministic count rose past the ledger\n");
  return ok ? 0 : 1;
}
