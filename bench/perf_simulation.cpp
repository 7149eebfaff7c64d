// Microbenchmarks (google-benchmark): event-kernel throughput, closed-loop
// CP-PLL simulation rate, and the cost of one complete BIST point
// measurement. These quantify the claim that the event-driven analytic
// substrate simulates seconds of loop time in milliseconds of wall time.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bist/resilient_sweep.hpp"
#include "pll/config.hpp"
#include "pll/cppll.hpp"
#include "pll/sources.hpp"
#include "sim/circuit.hpp"
#include "sim/primitives.hpp"

namespace {

using namespace pllbist;

/// Raw kernel: a clock fanned out through a chain of gates.
void BM_EventKernel(benchmark::State& state) {
  int64_t delivered = 0;
  for (auto _ : state) {
    sim::Circuit c;
    const auto clk = c.addSignal("clk");
    sim::ClockSource src(c, clk, 1e-6);
    sim::SourceDriver driver(c, src);
    std::vector<sim::SignalId> nets{clk};
    std::vector<std::unique_ptr<sim::Inverter>> chain;
    for (int i = 0; i < 8; ++i) {
      const auto out = c.addSignal("n" + std::to_string(i));
      chain.push_back(std::make_unique<sim::Inverter>(c, nets.back(), out, 1e-9));
      nets.push_back(out);
    }
    c.run(10e-3);  // 10k clock edges through 8 gates
    // Throughput counts delivered events only; dropped/delayed/swallowed
    // ones never reach a consumer, so they would inflate items/s.
    delivered += static_cast<int64_t>(c.deliveredEventCount());
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(delivered);
}
BENCHMARK(BM_EventKernel)->Unit(benchmark::kMillisecond);

/// A self-rescheduling event source, 100k events: the typed path (a
/// registered handler, plain-data queue entries) against the same loop
/// through scheduleCallback (a closure parked in the slab per event).
class Ticker : public sim::Circuit::Handler {
 public:
  explicit Ticker(sim::Circuit& c) : circuit_(c), id_(c.addHandler(*this)) {}
  void start() { circuit_.scheduleEvent(0.0, id_, 0); }

 private:
  bool onEvent(uint32_t tag, double now) override {
    circuit_.scheduleEvent(now + 1e-6, id_, tag + 1);
    return true;
  }
  sim::Circuit& circuit_;
  sim::Circuit::HandlerId id_;
};

void BM_HandlerEvent(benchmark::State& state) {
  const bool typed = state.range(0) != 0;
  int64_t delivered = 0;
  for (auto _ : state) {
    sim::Circuit c;
    Ticker ticker(c);
    std::function<void(double)> tick = [&c, &tick](double now) {
      c.scheduleCallback(now + 1e-6, tick);
    };
    if (typed)
      ticker.start();
    else
      c.scheduleCallback(0.0, tick);
    c.run(0.1 - 0.5e-6);  // 100k events
    delivered += static_cast<int64_t>(c.deliveredEventCount());
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(delivered);
  state.SetLabel(typed ? "handler" : "closure");
}
BENCHMARK(BM_HandlerEvent)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

/// Closed-loop PLL: simulated seconds per wall second.
void BM_ClosedLoopSecond(benchmark::State& state) {
  for (auto _ : state) {
    const pll::PllConfig cfg = pll::scaledTestConfig();
    sim::Circuit c;
    const auto stim = c.addSignal("stim");
    pll::SineFmSource::Config scfg;
    scfg.nominal_hz = cfg.ref_frequency_hz;
    pll::SineFmSource src(c, stim, scfg);
    pll::CpPll pll(c, src, cfg);
    pll.setTestMode(true);
    c.run(1.0);  // one simulated second at 100 kHz VCO
    benchmark::DoNotOptimize(pll.controlVoltageNow());
  }
}
BENCHMARK(BM_ClosedLoopSecond)->Unit(benchmark::kMillisecond);

/// One complete BIST point (settle, phase count, hold, gate).
void BM_BistPoint(benchmark::State& state) {
  for (auto _ : state) {
    const pll::PllConfig cfg = pll::scaledTestConfig();
    bist::SweepOptions opt = bist::quickSweepOptions(cfg, bist::StimulusKind::MultiToneFsk, 10);
    opt.modulation_frequencies_hz = {200.0};
    bist::ResilientSweep sweep(cfg, opt, {.max_attempts = 1});
    benchmark::DoNotOptimize(sweep.run().response.points.size());
  }
}
BENCHMARK(BM_BistPoint)->Unit(benchmark::kMillisecond);

/// Full reference sweep at paper scale, multi-tone.
void BM_ReferenceSweep(benchmark::State& state) {
  for (auto _ : state) {
    const pll::PllConfig cfg = pll::referenceConfig();
    bist::SweepOptions opt;
    opt.stimulus = bist::StimulusKind::MultiToneFsk;
    opt.modulation_frequencies_hz = bist::SweepOptions::defaultSweep(8.0, 6);
    bist::ResilientSweep sweep(cfg, opt, {.max_attempts = 1});
    benchmark::DoNotOptimize(sweep.run().response.points.size());
  }
}
BENCHMARK(BM_ReferenceSweep)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
