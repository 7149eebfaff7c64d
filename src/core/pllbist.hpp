#pragma once

/// Umbrella header for the pllbist library.
///
/// pllbist reproduces "Techniques for Automatic On-Chip Closed Loop
/// Transfer Function Monitoring For Embedded Charge Pump Phase Locked
/// Loops" (Burbidge, Tijou, Richardson — DATE 2003): a digital-only BIST
/// that measures an embedded CP-PLL's closed-loop magnitude/phase response
/// using a DCO-generated discrete-FM stimulus, a modified-PFD peak
/// detector, loop-hold, and frequency/phase counters.
///
/// Layering (each usable on its own):
///   control/   rational transfer functions, Bode analysis, loop design math
///   dsp/       sine fitting, interpolation, edge-timestamp frequency
///   sim/       discrete-event digital simulation kernel and the few net
///              primitives the loop and benches wire (mux, clock, divider)
///   pll/       behavioral CP-PLL models (PFD, pump+filter, VCO, dividers)
///   bist/      the paper's test hardware (DCO, modulator, peak detector,
///              analytic frequency counter, phase counter, sequencer) and
///              the sweep engine (ResilientSweep, the ParallelSweep point
///              farm)
///   baseline/  conventional bench measurement (analog access) comparator
///   core/      core::measure (one sweep to a Bode response), characterize,
///              test plan, campaign runtime, run report

#include "baseline/bench_measurement.hpp"
#include "bist/analysis.hpp"
#include "bist/sweep_types.hpp"
#include "bist/dco.hpp"
#include "bist/delay_line.hpp"
#include "bist/modulator.hpp"
#include "bist/peak_detector.hpp"
#include "bist/resilient_sweep.hpp"
#include "bist/sequencer.hpp"
#include "bist/step_test.hpp"
#include "bist/testbench.hpp"
#include "common/status.hpp"
#include "common/stop_token.hpp"
#include "common/units.hpp"
#include "control/bode.hpp"
#include "control/cppll_model.hpp"
#include "control/grid.hpp"
#include "control/second_order.hpp"
#include "control/transfer_function.hpp"
#include "core/campaign.hpp"
#include "core/characterization.hpp"
#include "core/journal.hpp"
#include "core/measurement.hpp"
#include "core/report_builder.hpp"
#include "core/testplan.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/tracer.hpp"
#include "pll/config.hpp"
#include "pll/cppll.hpp"
#include "pll/faults.hpp"
#include "pll/probes.hpp"
#include "pll/sources.hpp"
#include "sim/circuit.hpp"
#include "sim/primitives.hpp"
#include "sim/trace.hpp"
