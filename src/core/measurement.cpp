#include "core/measurement.hpp"

#include <stdexcept>
#include <utility>

#include "common/units.hpp"
#include "control/grid.hpp"

namespace pllbist::core {

TransferFunctionMeasurement::TransferFunctionMeasurement(pll::PllConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

bist::SweepOptions TransferFunctionMeasurement::defaultSweepOptions(bist::StimulusKind stimulus,
                                                                    int points) const {
  bist::SweepOptions opt;
  opt.stimulus = stimulus;
  const double fn_hz = radPerSecToHz(config_.secondOrder().omega_n_rad_per_s);
  opt.modulation_frequencies_hz = bist::SweepOptions::defaultSweep(fn_hz, points);
  return opt;
}

MeasurementResult TransferFunctionMeasurement::measure(
    const bist::SweepOptions& options, const bist::ResilientSweepOptions& resilience) const {
  bist::ResilientResponse resilient = bist::ResilientSweep(config_, options, resilience).run();
  // Fit what survived; record why when nothing did.
  MeasurementResult result;
  result.sweep = std::move(resilient.response);
  result.quality = resilient.report;
  result.status = resilient.status;
  if (result.quality.usable() == 0) {
    if (result.status.ok())
      result.status = Status::makef(Status::Kind::NoValidPoints,
                                    "all %d sweep points dropped, no response to fit",
                                    result.quality.points_total);
    return result;
  }
  try {
    result.bode = result.sweep.toBode();
    result.parameters = bist::extractParameters(result.bode);
  } catch (const std::domain_error& e) {
    // Survivable points without a usable reference deviation (e.g. the DC
    // reference itself was measured against a railed loop).
    if (result.status.ok())
      result.status = Status::make(Status::Kind::NoValidPoints, e.what());
  }
  return result;
}

baseline::BenchResult TransferFunctionMeasurement::runBench(
    const baseline::BenchOptions& options) const {
  return baseline::measureBench(config_, options);
}

baseline::BenchResult TransferFunctionMeasurement::runBench(int points) const {
  baseline::BenchOptions opt;
  const double fn_hz = radPerSecToHz(config_.secondOrder().omega_n_rad_per_s);
  opt.modulation_frequencies_hz = control::logspace(fn_hz / 10.0, fn_hz * 5.0, points);
  return runBench(opt);
}

control::TransferFunction TransferFunctionMeasurement::theoryEqn4() const {
  return config_.closedLoopDividedTf();
}

control::TransferFunction TransferFunctionMeasurement::theoryCapacitor() const {
  return config_.capacitorNodeTf();
}

}  // namespace pllbist::core
