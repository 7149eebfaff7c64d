#include "baseline/bench_measurement.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "dsp/resample.hpp"
#include "dsp/tone.hpp"
#include "pll/cppll.hpp"
#include "pll/probes.hpp"
#include "pll/sources.hpp"
#include "sim/circuit.hpp"
#include "sim/trace.hpp"

namespace pllbist::baseline {

void BenchOptions::validate() const {
  if (deviation_hz <= 0.0) throw std::invalid_argument("BenchOptions: deviation must be positive");
  if (modulation_frequencies_hz.empty())
    throw std::invalid_argument("BenchOptions: need at least one modulation frequency");
  for (size_t i = 0; i < modulation_frequencies_hz.size(); ++i) {
    if (modulation_frequencies_hz[i] <= 0.0)
      throw std::invalid_argument("BenchOptions: modulation frequencies must be positive");
    if (i > 0 && modulation_frequencies_hz[i] <= modulation_frequencies_hz[i - 1])
      throw std::invalid_argument("BenchOptions: modulation frequencies must be ascending");
  }
  if (settle_periods < 1 || measure_periods < 1)
    throw std::invalid_argument("BenchOptions: settle/measure periods must be >= 1");
  if (samples_per_period < 8)
    throw std::invalid_argument("BenchOptions: need at least 8 samples per period");
  if (lock_wait_s < 0.0) throw std::invalid_argument("BenchOptions: lock wait must be >= 0");
}

control::BodeResponse BenchResult::toBode() const {
  std::vector<control::BodePoint> pts;
  pts.reserve(points.size());
  for (const BenchPoint& p : points)
    pts.push_back({hzToRadPerSec(p.modulation_hz), amplitudeToDb(p.gain), p.phase_deg});
  return control::BodeResponse::fromPoints(std::move(pts));
}

BenchResult measureBench(const pll::PllConfig& config, const BenchOptions& options) {
  config.validate();
  options.validate();

  sim::Circuit c;
  const sim::SignalId stim = c.addSignal("stimulus");
  const sim::SignalId marker = c.addSignal("stim_peak");

  pll::SineFmSource::Config scfg;
  scfg.nominal_hz = config.ref_frequency_hz;
  scfg.deviation_hz = 0.0;
  scfg.modulation_hz = 0.0;
  pll::SineFmSource source(c, stim, marker, scfg, sim::SourceMode::Pulled);

  pll::CpPll pll(c, source, config);
  pll.setTestMode(true);
  c.run(options.lock_wait_s);

  // Instruments are hoisted out of the sweep loop: they register circuit
  // callbacks, so they must outlive all circuit activity.
  sim::EdgeRecorder edges(c, pll.vcoOut());
  sim::Trace trace("probe");
  pll::AnalogProbe probe(c, [&]() { return pll.controlVoltageNow(); }, trace, 1.0, c.now());
  probe.stop();

  BenchResult result;
  for (double fm : options.modulation_frequencies_hz) {
    const double period = 1.0 / fm;
    source.setModulation(fm, options.deviation_hz);
    const double epoch = c.now();  // stimulus modulation phase zero
    c.run(c.now() + options.settle_periods * period);

    // Acquire the response over the measurement window.
    //  - VcoFrequency: per-cycle frequency from VCO edge timestamps (what a
    //    frequency discriminator measures). Each sample is the *average*
    //    frequency over one VCO cycle, so sub-cycle pump-pulse ripple is
    //    integrated rather than aliased.
    //  - LoopFilterVoltage: point-sampled control node, several samples per
    //    reference cycle so the pump pulses are resolved rather than
    //    aliased into the fit.
    std::vector<double> times;
    std::vector<double> values;
    if (options.probe == ProbeNode::VcoFrequency) {
      edges.clear();
      c.run(c.now() + options.measure_periods * period);
      for (const auto& s : dsp::frequencyFromEdges(edges.risingEdges())) {
        times.push_back(s.time_s);
        values.push_back(s.value);
      }
    } else {
      trace.clear();
      probe.setInterval(std::min(period / static_cast<double>(options.samples_per_period),
                                 1.0 / (12.0 * config.ref_frequency_hz)));
      probe.restart(c.now());
      c.run(c.now() + options.measure_periods * period);
      probe.stop();
      times = trace.times();
      values = trace.values();
    }

    const dsp::ToneFit fit = dsp::fitSine(times, values, fm);

    // Convert fitted amplitude to |H| at the divided output: the input
    // frequency deviation is options.deviation_hz, the VCO deviation is N
    // times larger for the same |H|.
    double gain = 0.0;
    if (options.probe == ProbeNode::VcoFrequency) {
      gain = fit.amplitude / (options.deviation_hz * static_cast<double>(config.divider_n));
    } else {
      const double vco_dev_hz = fit.amplitude * config.vco.gain_hz_per_v;
      gain = vco_dev_hz / (options.deviation_hz * static_cast<double>(config.divider_n));
    }

    // Stimulus deviation is dev*sin(2*pi*fm*(t - epoch)); the fit reports
    // x(t) = A*sin(2*pi*fm*t + phi). Relative phase = phi + 2*pi*fm*epoch.
    double rel_deg = radToDeg(fit.phase_rad + kTwoPi * fm * epoch);
    rel_deg = std::fmod(rel_deg, 360.0);
    if (rel_deg > 0.0) rel_deg -= 360.0;

    result.points.push_back({fm, gain, rel_deg, fit.residual_rms});
    source.setModulation(0.0, 0.0);
  }
  return result;
}

}  // namespace pllbist::baseline
