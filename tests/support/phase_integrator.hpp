#pragma once

#include <vector>

#include "golden/linear_model.hpp"
#include "pll/config.hpp"

namespace pllbist::golden {

/// Knobs of the discrete phase-domain reference integrator.
struct PhaseIntegratorOptions {
  double settle_periods = 25.0;   ///< modulation periods discarded before fitting
  double measure_periods = 8.0;   ///< modulation periods fitted
  int steps_per_period = 2048;    ///< RK4 steps per modulation period
  /// The step is additionally capped at this fraction of the loop's
  /// natural period, so slow modulation of a fast loop still resolves the
  /// loop dynamics.
  double max_step_natural_fraction = 1.0 / 256.0;
};

/// One frequency point produced by the integrator: the fitted magnitude
/// (dB, referenced to the unity-gain output deviation) and phase lag
/// (degrees) of the loop's response to sinusoidal reference FM.
struct IntegratorPoint {
  double fm_hz = 0.0;
  double magnitude_db = 0.0;
  double phase_deg = 0.0;
  double residual_rms = 0.0;  ///< sine-fit residual over the fitted window
};

/// Second independent golden reference: integrate the *averaged* (linear
/// phase-domain) loop ODEs with classic RK4 and extract amplitude/phase by
/// least-squares sine fit. Only its own test uses it, to cross-check the
/// closed-form oracle (golden::GoldenModel), so it lives with the tests, in
/// the oracle's namespace.
///
/// This path shares nothing with either the event-driven simulator (no
/// edges, no counters, no PFD state machine) or the closed-form oracle (no
/// wn/zeta formulas — it works on the raw electrical parameters):
///
///   Voltage4046:     dvc/dt = (Kpd*theta_e - vc) / ((R1 + R2)*C)
///                    vy     = vc + R2*(Kpd*theta_e - vc)/(R1 + R2)
///   CurrentSteering: dvc/dt = Ip*theta_e/(2*pi*C)
///                    vy     = vc + R2*Ip*theta_e/(2*pi)
///   both:            dtheta_o/dt = Ko*vy,  theta_e = theta_i - theta_o/N
///
/// with theta_i(t) = -(2*pi*dev_hz/w_m)*cos(w_m*t), i.e. reference FM of
/// peak deviation dev_hz at w_m. The reported magnitude is the VCO
/// frequency-deviation amplitude over the unity-gain deviation N*dev_hz
/// (ResponseKind::DividedOutput reads the control node vy — the eqn (4)
/// curve; CapacitorNode reads vc — what the BIST holds).
IntegratorPoint integratePoint(const pll::PllConfig& config, double fm_hz, double deviation_hz,
                               ResponseKind kind = ResponseKind::CapacitorNode,
                               const PhaseIntegratorOptions& options = {});

/// integratePoint over a whole sweep.
std::vector<IntegratorPoint> integrateSweep(const pll::PllConfig& config,
                                            const std::vector<double>& fm_hz, double deviation_hz,
                                            ResponseKind kind = ResponseKind::CapacitorNode,
                                            const PhaseIntegratorOptions& options = {});

}  // namespace pllbist::golden
