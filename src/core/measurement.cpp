#include "core/measurement.hpp"

#include <stdexcept>
#include <utility>

namespace pllbist::core {

MeasurementResult measure(const pll::PllConfig& config, const bist::SweepOptions& sweep,
                          const bist::ResilientSweepOptions& resilience) {
  // The ResilientSweep constructor throws on an invalid config or options.
  bist::ResilientResponse resilient = bist::ResilientSweep(config, sweep, resilience).run();
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

}  // namespace pllbist::core
