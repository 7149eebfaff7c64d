#include "core/characterization.hpp"

#include <cmath>
#include <cstdio>

#include "common/units.hpp"
#include "control/second_order.hpp"

namespace pllbist::core {

namespace {
double relError(double measured, double designed) {
  if (designed == 0.0) return 1.0;
  return std::abs(measured - designed) / std::abs(designed);
}
}  // namespace

CharacterizationReport characterize(const pll::PllConfig& config,
                                    const bist::SweepOptions& options) {
  CharacterizationReport report;

  const control::SecondOrderParams design = config.secondOrder();
  report.design_fn_hz = radPerSecToHz(design.omega_n_rad_per_s);
  report.design_zeta = design.zeta;
  report.design_f3db_hz =
      radPerSecToHz(control::bandwidth3Db(design.omega_n_rad_per_s, design.zeta));

  const MeasurementResult m = measure(config, options, {.max_attempts = 1});
  m.status.throwIfError();
  report.measured_peaking_db = m.parameters.peaking_db;
  if (m.parameters.natural_frequency_hz) report.measured_fn_hz = *m.parameters.natural_frequency_hz;
  if (m.parameters.zeta) report.measured_zeta = *m.parameters.zeta;
  if (m.parameters.bandwidth_3db_hz) report.measured_f3db_hz = *m.parameters.bandwidth_3db_hz;

  report.fn_error = relError(report.measured_fn_hz, report.design_fn_hz);
  report.zeta_error = relError(report.measured_zeta, report.design_zeta);
  report.f3db_error = relError(report.measured_f3db_hz, report.design_f3db_hz);
  return report;
}

std::string CharacterizationReport::render() const {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%-18s %10s %10s %8s\n"
                "%-18s %10.3f %10.3f %7.1f%%\n"
                "%-18s %10.3f %10.3f %7.1f%%\n"
                "%-18s %10.3f %10.3f %7.1f%%\n"
                "%-18s %10s %10.2f\n",
                "parameter", "designed", "measured", "error",
                "fn (Hz)", design_fn_hz, measured_fn_hz, fn_error * 100.0,
                "zeta", design_zeta, measured_zeta, zeta_error * 100.0,
                "f3dB (Hz)", design_f3db_hz, measured_f3db_hz, f3db_error * 100.0,
                "peaking (dB)", "-", measured_peaking_db);
  return buf;
}

}  // namespace pllbist::core
