// Figure 5: graphical illustration of the PFD/charge-pump operation —
// reproduced as measured waveform statistics from the PFD model (the gate
// netlist's transitions, every gate delay included)
// for the three cases the paper annotates:
//   (1) feedback leads  -> DN pulses, LF voltage falls
//   (2) reference leads -> UP pulses, LF voltage rises
//   (3) coincident      -> dead-zone glitches only, LF voltage held

#include <cstdio>

#include "pll/pfd.hpp"
#include "pll/pump_filter.hpp"
#include "sim/circuit.hpp"
#include "sim/primitives.hpp"
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

CaseResult runCase(double skew_s) {
  sim::Circuit c;
  const auto ref = c.addSignal("ref");
  const auto fb = c.addSignal("fb");
  pll::Pfd pfd(c, ref, fb, pll::PfdDelays{});
  pll::PumpFilterConfig fcfg;
  fcfg.r1_ohm = 10e3;
  fcfg.r2_ohm = 1e3;
  fcfg.c_farad = 1e-6;
  pll::PumpFilter filter(c, pfd.up(), pfd.dn(), fcfg);
  sim::EdgeRecorder up(c, pfd.up());
  sim::EdgeRecorder dn(c, pfd.dn());

  const double period = 100e-6;
  const int cycles = 50;
  for (int k = 0; k < cycles; ++k) {
    const double t = 1e-5 + k * period;
    c.scheduleSet(ref, t, true);
    c.scheduleSet(ref, t + period / 2, false);
    c.scheduleSet(fb, t + skew_s, true);
    c.scheduleSet(fb, t + skew_s + period / 2, false);
  }
  const double t_end = 1e-5 + (cycles + 1) * period;
  c.run(t_end);

  CaseResult r;
  auto widest = [](const sim::EdgeRecorder& rec, size_t& pulse_count) {
    double w = 0.0;
    const size_t n = std::min(rec.risingEdges().size(), rec.fallingEdges().size());
    for (size_t i = 0; i < n; ++i) {
      const double width = rec.fallingEdges()[i] - rec.risingEdges()[i];
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
