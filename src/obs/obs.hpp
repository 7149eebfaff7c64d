#pragma once

// Conventions of the telemetry subsystem: metrics (obs/metrics.hpp) and
// spans (obs/tracer.hpp) are always compiled in. Metrics record a few values
// per sweep point; the tracer records only once enabled.
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

