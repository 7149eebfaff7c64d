#include "support/phase_integrator.hpp"

#include <cmath>
#include <stdexcept>

#include "common/units.hpp"
#include "dsp/tone.hpp"

namespace pllbist::golden {

namespace {

/// Averaged phase-domain loop: state x = (vc, theta_o), parameterised so
/// the derivative needs only the raw electrical constants.
struct LoopOde {
  bool voltage_pump = false;
  double kpd = 0.0;       ///< V/rad (Voltage4046)
  double ip_over_2pi = 0.0;  ///< A/rad (CurrentSteering)
  double ko = 0.0;        ///< rad/s per V
  double n = 1.0;
  double r1 = 0.0, r2 = 0.0, c = 0.0;
  double omega_m = 0.0;
  double theta_amp = 0.0;  ///< input phase amplitude 2*pi*dev/omega_m

  [[nodiscard]] double thetaIn(double t) const { return -theta_amp * std::cos(omega_m * t); }

  /// Control-node voltage vy for a given state and time.
  [[nodiscard]] double vy(double t, const double x[2]) const {
    const double theta_e = thetaIn(t) - x[1] / n;
    if (voltage_pump) {
      const double vd = kpd * theta_e;
      return x[0] + r2 * (vd - x[0]) / (r1 + r2);
    }
    return x[0] + r2 * ip_over_2pi * theta_e;
  }

  void derivative(double t, const double x[2], double dx[2]) const {
    const double theta_e = thetaIn(t) - x[1] / n;
    if (voltage_pump) {
      const double vd = kpd * theta_e;
      dx[0] = (vd - x[0]) / ((r1 + r2) * c);
      dx[1] = ko * (x[0] + r2 * (vd - x[0]) / (r1 + r2));
    } else {
      const double i = ip_over_2pi * theta_e;
      dx[0] = i / c;
      dx[1] = ko * (x[0] + r2 * i);
    }
  }
};

}  // namespace

IntegratorPoint integratePoint(const pll::PllConfig& config, double fm_hz, double deviation_hz,
                               ResponseKind kind, const PhaseIntegratorOptions& options) {
  config.validate();
  if (!(fm_hz > 0.0)) throw std::invalid_argument("integratePoint: fm_hz must be positive");
  if (!(deviation_hz > 0.0))
    throw std::invalid_argument("integratePoint: deviation_hz must be positive");
  if (options.steps_per_period < 16)
    throw std::invalid_argument("integratePoint: steps_per_period must be >= 16");

  LoopOde ode;
  ode.voltage_pump = config.pump.kind == pll::PumpKind::Voltage4046;
  ode.kpd = (config.pump.vdd_v - config.pump.vss_v) / (4.0 * kPi);
  ode.ip_over_2pi = config.pump.pump_current_a / kTwoPi;
  ode.ko = kTwoPi * config.vco.gain_hz_per_v;
  ode.n = static_cast<double>(config.divider_n);
  ode.r1 = config.pump.r1_ohm;
  ode.r2 = config.pump.r2_ohm;
  ode.c = config.pump.c_farad;
  ode.omega_m = hzToRadPerSec(fm_hz);
  ode.theta_amp = hzToRadPerSec(deviation_hz) / ode.omega_m;

  // Step: resolve both the modulation period and the loop's own dynamics.
  const double tm = 1.0 / fm_hz;
  const double wn = deriveParameters(config).omega_n_rad_per_s;
  const double tn = kTwoPi / wn;
  double dt = tm / options.steps_per_period;
  if (dt > tn * options.max_step_natural_fraction) dt = tn * options.max_step_natural_fraction;

  const double t_settle = options.settle_periods * tm;
  const double t_end = t_settle + options.measure_periods * tm;

  double x[2] = {0.0, 0.0};
  std::vector<double> times, values;
  const size_t expected = static_cast<size_t>((t_end - t_settle) / dt) + 2;
  times.reserve(expected);
  values.reserve(expected);

  double t = 0.0;
  while (t < t_end) {
    if (t >= t_settle) {
      const double v = kind == ResponseKind::CapacitorNode ? x[0] : ode.vy(t, x);
      times.push_back(t);
      // VCO frequency deviation in Hz implied by the node voltage.
      values.push_back(ode.ko * v / kTwoPi);
    }
    // Classic RK4 step.
    double k1[2], k2[2], k3[2], k4[2], xt[2];
    ode.derivative(t, x, k1);
    xt[0] = x[0] + 0.5 * dt * k1[0]; xt[1] = x[1] + 0.5 * dt * k1[1];
    ode.derivative(t + 0.5 * dt, xt, k2);
    xt[0] = x[0] + 0.5 * dt * k2[0]; xt[1] = x[1] + 0.5 * dt * k2[1];
    ode.derivative(t + 0.5 * dt, xt, k3);
    xt[0] = x[0] + dt * k3[0]; xt[1] = x[1] + dt * k3[1];
    ode.derivative(t + dt, xt, k4);
    x[0] += dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]);
    x[1] += dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]);
    t += dt;
  }

  // The input frequency deviation is dev_hz*sin(omega_m*t) with phase 0, so
  // the fitted phase *is* the loop's phase lag; the unity-gain output
  // deviation at the VCO is N*dev_hz.
  const dsp::ToneFit fit = dsp::fitSine(times, values, fm_hz);
  IntegratorPoint p;
  p.fm_hz = fm_hz;
  p.magnitude_db = amplitudeToDb(fit.amplitude / (ode.n * deviation_hz));
  double deg = radToDeg(fit.phase_rad);
  while (deg <= -180.0) deg += 360.0;
  while (deg > 180.0) deg -= 360.0;
  p.phase_deg = deg;
  p.residual_rms = fit.residual_rms;
  return p;
}

std::vector<IntegratorPoint> integrateSweep(const pll::PllConfig& config,
                                            const std::vector<double>& fm_hz, double deviation_hz,
                                            ResponseKind kind,
                                            const PhaseIntegratorOptions& options) {
  std::vector<IntegratorPoint> out;
  out.reserve(fm_hz.size());
  for (double f : fm_hz) out.push_back(integratePoint(config, f, deviation_hz, kind, options));
  return out;
}

}  // namespace pllbist::golden
