#pragma once

// Master switch of the telemetry subsystem. The build defines
// PLLBIST_OBS_DISABLED (CMake option PLLBIST_OBS=OFF) to compile every
// recording call — metric increments, span open/close, instants — down to
// nothing. The registry/tracer/report *types* stay available either way, so
// call sites never need #ifdef guards: they pay one `if constexpr` that the
// compiler deletes.
//
// Naming convention for metrics (enforced by review, not code):
//   layer.component.name        e.g. sim.kernel.events_delivered,
//                                    bist.resilient.relocks,
//                                    bist.sweep.point_wall_s
// Units are part of the name suffix where they matter (_s, _hz).
//
// Span taxonomy (see DESIGN.md §8):
//   sim.circuit.run             one Circuit::run(t_end) batch
//   sequencer.settle / .phase_measure / .await_peak / .hold_count
//   point.measure               one frequency point, all attempts
//   point.attempt               one measurement attempt
//   sweep.run                   one ResilientSweep::run()
//   farm.run / farm.worker      ParallelSweep executor / one worker thread
//   campaign.run                one Campaign::run(); its points run in farm.run

namespace pllbist::obs {

#if defined(PLLBIST_OBS_DISABLED)
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

}  // namespace pllbist::obs
