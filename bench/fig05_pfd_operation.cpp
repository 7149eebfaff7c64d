// Figure 5: graphical illustration of the PFD/charge-pump operation —
// reproduced as measured waveform statistics from the PFD model (the gate
// netlist's transitions, every gate delay included) driving the pump/filter
// for the three cases the paper annotates:
//   (1) feedback leads  -> DN pulses, LF voltage falls
//   (2) reference leads -> UP pulses, LF voltage rises
//   (3) coincident      -> dead-zone glitches only, LF voltage held

#include <algorithm>
#include <cstdio>
#include <vector>

#include "pll/pfd.hpp"
#include "pll/pump_filter.hpp"
#include "support/bench_util.hpp"

namespace {

using namespace pllbist;

struct CaseResult {
  double up_width_us = 0.0;
  double dn_width_us = 0.0;
  size_t up_pulses = 0;
  size_t dn_pulses = 0;
  double dv_mv = 0.0;
};

/// Rising and falling edge times of one PFD output.
struct Edges {
  std::vector<double> rising;
  std::vector<double> falling;
};

CaseResult runCase(double skew_s) {
  pll::Pfd pfd(pll::PfdDelays{});
  pll::PumpFilterConfig fcfg;
  fcfg.r1_ohm = 10e3;
  fcfg.r2_ohm = 1e3;
  fcfg.c_farad = 1e-6;
  pll::PumpFilter filter(fcfg);

  const double period = 100e-6;
  const int cycles = 50;
  for (int k = 0; k < cycles; ++k) pfd.clock(false, 1e-5 + k * period);
  for (int k = 0; k < cycles; ++k) pfd.clock(true, 1e-5 + k * period + skew_s);
  const double t_end = 1e-5 + (cycles + 1) * period;
  Edges up, dn;
  while (pfd.nextWriteTime() <= t_end) {
    pll::Pfd::Write w;
    bool changed = false;
    if (!pfd.applyNext(w, changed) || !changed) continue;
    Edges& out = w.dn ? dn : up;
    (w.value ? out.rising : out.falling).push_back(w.time);
    filter.drive(w.time, w.dn, w.value);
  }

  CaseResult r;
  auto widest = [](const Edges& e, size_t& pulse_count) {
    double w = 0.0;
    const size_t n = std::min(e.rising.size(), e.falling.size());
    for (size_t i = 0; i < n; ++i) {
      const double width = e.falling[i] - e.rising[i];
      if (width > 1e-7) ++pulse_count;
      w = std::max(w, width);
    }
    return w;
  };
  r.up_width_us = widest(up, r.up_pulses) * 1e6;
  r.dn_width_us = widest(dn, r.dn_pulses) * 1e6;
  r.dv_mv = (filter.capVoltage(t_end) - fcfg.initial_vc_v) * 1e3;
  return r;
}

}  // namespace

int main() {
  benchutil::printHeader("Figure 5 - CP-PFD operation (lead / lag / coincident)");
  std::printf("\n%-26s %12s %12s %10s %10s %12s\n", "case", "UP width", "DN width", "UP pulses",
              "DN pulses", "dVcap (50 cyc)");
  struct Case {
    const char* name;
    double skew;
  };
  for (const Case& cs : {Case{"(2) reference leads 5us", 5e-6}, Case{"(1) feedback leads 5us", -5e-6},
                         Case{"(3) coincident", 0.0}}) {
    const CaseResult r = runCase(cs.skew);
    std::printf("%-26s %9.2f us %9.2f us %10zu %10zu %9.2f mV\n", cs.name, r.up_width_us,
                r.dn_width_us, r.up_pulses, r.dn_pulses, r.dv_mv);
  }
  std::printf(
      "\nExpected (paper Fig. 5): reference leading -> wide UP pulses, LF voltage\n"
      "rises; feedback leading -> wide DN pulses, LF voltage falls; coincident ->\n"
      "both outputs carry only ~ns dead-zone glitches (from the D-latch and AND\n"
      "propagation delays) and the filter voltage holds. These glitches are what\n"
      "clock the Figure 7 sampling latch.\n");
  return 0;
}
