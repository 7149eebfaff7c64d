#include "core/testplan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace pllbist::core {

TestPlan::TestPlan(const pll::PllConfig& golden, const bist::SweepOptions& sweep, double tolerance)
    : golden_(golden), sweep_(sweep) {
  if (tolerance <= 0.0 || tolerance >= 1.0)
    throw std::invalid_argument("TestPlan: tolerance must be in (0, 1)");
  const MeasurementResult m = measure(golden_, sweep_, {.max_attempts = 1});
  m.status.throwIfError();
  golden_params_ = m.parameters;
  golden_nominal_hz_ = m.sweep.nominal_vco_hz;
  limits_ = bist::limitsFromGolden(golden_params_, tolerance);
}

TestPlan::DutResult TestPlan::screen(const pll::PllConfig& dut) const {
  DutResult result;
  MeasurementResult m;
  try {
    m = measure(dut, sweep_, {.max_attempts = 1});
  } catch (const std::exception& e) {
    // A DUT configuration the sweep cannot even be set up for is itself a
    // detection.
    m.status = Status::make(Status::Kind::InvalidArgument, e.what());
  }
  // A sweep that ended early or left nothing to fit (e.g. no in-band
  // reference because the loop is dead), or any timed-out point, fails.
  result.measurement_failed =
      !m.status.ok() || std::any_of(m.sweep.points.begin(), m.sweep.points.end(),
                                    [](const bist::MeasuredPoint& p) { return p.timed_out; });
  if (m.status.ok()) {
    result.parameters = m.parameters;
    result.verdict = bist::checkLimits(result.parameters, limits_);
    // Absolute output-frequency check: the transfer-function shape alone is
    // nearly blind to divider-count defects.
    if (golden_nominal_hz_ > 0.0 &&
        std::abs(m.sweep.nominal_vco_hz - golden_nominal_hz_) >
            nominal_tolerance_ * golden_nominal_hz_) {
      result.verdict.pass = false;
      char buf[128];
      std::snprintf(buf, sizeof buf, "nominal output %.6g Hz deviates from golden %.6g Hz",
                    m.sweep.nominal_vco_hz, golden_nominal_hz_);
      result.verdict.failures.emplace_back(buf);
    }
  }
  if (result.measurement_failed) {
    result.verdict.pass = false;
    result.verdict.failures.emplace_back("measurement failed (loop dead or BIST timeout)");
  }
  return result;
}

double TestPlan::CoverageReport::coverage() const {
  if (rows.empty()) return 0.0;
  size_t detected = 0;
  for (const CoverageRow& row : rows)
    if (row.detected) ++detected;
  return static_cast<double>(detected) / static_cast<double>(rows.size());
}

TestPlan::CoverageReport TestPlan::faultCoverage(const std::vector<pll::FaultSpec>& faults) const {
  CoverageReport report;
  report.golden_passes = screen(golden_).verdict.pass;
  for (const pll::FaultSpec& fault : faults) {
    const pll::PllConfig faulty = pll::applyFault(golden_, fault);
    const DutResult r = screen(faulty);
    report.rows.push_back({fault, !r.verdict.pass, r.verdict.failures});
  }
  return report;
}

}  // namespace pllbist::core
