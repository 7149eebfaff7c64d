#pragma once

#include <array>
#include <limits>

namespace pllbist::pll {

/// Which phase-detector output stage drives the loop filter.
enum class PumpKind {
  /// 74HC(T)4046 PC2-style tri-state *voltage* output: drives the filter
  /// through series resistor R1 towards VDD (up) or VSS (down), high-Z when
  /// idle. This is the configuration of the paper's Figure 9 and eqn (3).
  Voltage4046,
  /// Classic charge pump: switched current sources +/-Ip straight into the
  /// filter node (R2 + C to ground), high-Z when idle. Gives the type-2
  /// loop found in integrated CP-PLLs.
  CurrentSteering,
};

/// Electrical configuration of the pump + passive loop filter.
struct PumpFilterConfig {
  PumpKind kind = PumpKind::Voltage4046;
  double vdd_v = 5.0;
  double vss_v = 0.0;
  double pump_current_a = 100e-6;  ///< |Ip| (CurrentSteering only)
  double r1_ohm = 1e6;             ///< series resistor (Voltage4046 only)
  double r2_ohm = 100e3;           ///< zero-setting resistor
  double c_farad = 47e-9;          ///< filter capacitor
  double initial_vc_v = 2.5;       ///< capacitor voltage at t = 0

  // Fault-injection knobs (1.0 / infinity = fault-free).
  double up_strength = 1.0;    ///< scales up-drive conductance / current
  double down_strength = 1.0;  ///< scales down-drive conductance / current
  double leak_ohm = std::numeric_limits<double>::infinity();  ///< node->VSS leak

  void validate() const;
};

/// Pump output stage plus lag-lead loop filter with *exact* analytic state
/// integration.
///
/// Between UP/DN transitions the drive is constant, so the single filter
/// state (capacitor voltage) evolves as either a pure exponential, a linear
/// ramp (ideal current pump), or a hold; the class advances the state lazily
/// in closed form whenever the drive changes or a voltage is queried. There
/// is no timestep and no integration error — crucial because the BIST
/// magnitude measurement resolves sub-percent frequency deviations.
///
/// A plain value type: its owner (pll::CpPll) tells it about every UP/DN
/// change with drive(), and a fork copies it.
class PumpFilter {
 public:
  /// Starts at time `start_time_s` with the pump idle (UP and DN low).
  explicit PumpFilter(const PumpFilterConfig& cfg, double start_time_s = 0.0);

  /// The PFD's UP (dn = false) or DN (dn = true) output changed to `on` at
  /// time t (>= the last query/drive-change time).
  void drive(double t, bool dn, bool on);

  /// Control-node voltage (the VCO input, node Y of Figure 9) at time t.
  /// t must be >= the last query/drive-change time.
  double controlVoltage(double t);

  /// Capacitor voltage (the filter state) at time t.
  double capVoltage(double t);

  /// True when neither output device is on (pump high-Z). With matched
  /// inputs the PFD emits only dead-zone glitches, so the filter holds —
  /// the paper's "loop hold" measurement trick (section 4, point 3).
  [[nodiscard]] bool isHighZ() const { return drive_ == 0; }

  /// True while the control voltage cannot move: no pump or leak current
  /// flows, so the capacitor holds (regime Hold). It changes only at a
  /// drive() call.
  [[nodiscard]] bool frozen() const { return segments_[drive_].regime == Regime::Hold; }

  [[nodiscard]] const PumpFilterConfig& config() const { return cfg_; }

 private:
  enum class Regime { Hold, Exponential, Ramp };
  /// How the state evolves under one drive.
  struct Segment {
    Regime regime = Regime::Hold;
    double asym_v = 0.0;     ///< exponential asymptote A
    double tau_s = 0.0;      ///< exponential time constant
    double slope_vps = 0.0;  ///< ramp slope (ideal current pump)
    // Output-node voltage is algebraic in (drive, vc): vy = out_a + out_b*vc.
    double out_a = 0.0;
    double out_b = 1.0;
  };
  static constexpr int kUp = 1;
  static constexpr int kDn = 2;

  static Segment segmentFor(const PumpFilterConfig& cfg, bool up, bool dn);
  void advanceTo(double t);
  [[nodiscard]] double outputVoltageNow() const;

  PumpFilterConfig cfg_;
  std::array<Segment, 4> segments_;  ///< per drive: kUp | kDn bits
  int drive_ = 0;                    ///< the UP/DN inputs now, as kUp | kDn bits

  double vc_ = 0.0;  ///< capacitor voltage at time last_t_
  double last_t_ = 0.0;
};

}  // namespace pllbist::pll
