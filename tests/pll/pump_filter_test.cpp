#include "pll/pump_filter.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/circuit.hpp"

namespace pllbist::pll {
namespace {

/// UP/DN nets that drive a filter through PumpFilter::drive.
struct Bench {
  sim::Circuit c;
  sim::SignalId up;
  sim::SignalId dn;

  Bench() : up(c.addSignal("up")), dn(c.addSignal("dn")) {}

  void wire(PumpFilter& f) {
    c.onChange(up, [&f](double now, bool v) { f.drive(now, false, v); });
    c.onChange(dn, [&f](double now, bool v) { f.drive(now, true, v); });
  }
};

PumpFilterConfig voltageConfig() {
  PumpFilterConfig cfg;
  cfg.kind = PumpKind::Voltage4046;
  cfg.vdd_v = 5.0;
  cfg.vss_v = 0.0;
  cfg.r1_ohm = 10e3;
  cfg.r2_ohm = 1e3;
  cfg.c_farad = 1e-6;
  cfg.initial_vc_v = 2.5;
  return cfg;
}

PumpFilterConfig currentConfig() {
  PumpFilterConfig cfg = voltageConfig();
  cfg.kind = PumpKind::CurrentSteering;
  cfg.pump_current_a = 100e-6;
  return cfg;
}

TEST(PumpFilterConfig, Validation) {
  PumpFilterConfig cfg = voltageConfig();
  cfg.vdd_v = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = voltageConfig();
  cfg.r2_ohm = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = voltageConfig();
  cfg.r1_ohm = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = currentConfig();
  cfg.pump_current_a = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = voltageConfig();
  cfg.initial_vc_v = 9.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = voltageConfig();
  cfg.leak_ohm = -5.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(PumpFilter, HighZHoldsCapacitorVoltage) {
  Bench b;
  PumpFilter f(voltageConfig());
  b.wire(f);
  EXPECT_TRUE(f.isHighZ());
  EXPECT_DOUBLE_EQ(f.capVoltage(0.0), 2.5);
  b.c.run(1.0);
  EXPECT_DOUBLE_EQ(f.capVoltage(1.0), 2.5);
  EXPECT_DOUBLE_EQ(f.controlVoltage(1.0), 2.5);  // vy = vc when no current flows
}

TEST(PumpFilter, UpDriveChargesExponentiallyTowardVdd) {
  Bench b;
  const PumpFilterConfig cfg = voltageConfig();
  PumpFilter f(cfg);
  b.wire(f);
  b.c.scheduleSet(b.up, 0.0, true);
  b.c.run(0.0);
  const double tau = (cfg.r1_ohm + cfg.r2_ohm) * cfg.c_farad;  // 11 ms
  b.c.run(tau);
  const double expected = 5.0 + (2.5 - 5.0) * std::exp(-1.0);
  EXPECT_NEAR(f.capVoltage(tau), expected, 1e-9);
  // Far beyond the time constant: settles at the rail.
  b.c.run(20.0 * tau);
  EXPECT_NEAR(f.capVoltage(20.0 * tau), 5.0, 1e-6);
}

TEST(PumpFilter, DownDriveDischargesTowardVss) {
  Bench b;
  const PumpFilterConfig cfg = voltageConfig();
  PumpFilter f(cfg);
  b.wire(f);
  b.c.scheduleSet(b.dn, 0.0, true);
  const double tau = (cfg.r1_ohm + cfg.r2_ohm) * cfg.c_farad;
  b.c.run(tau);
  EXPECT_NEAR(f.capVoltage(tau), 2.5 * std::exp(-1.0), 1e-9);
}

TEST(PumpFilter, OutputNodeJumpsByR2DividerDuringDrive) {
  Bench b;
  const PumpFilterConfig cfg = voltageConfig();
  PumpFilter f(cfg);
  b.wire(f);
  b.c.scheduleSet(b.up, 0.0, true);
  b.c.run(1e-6);  // vc barely moved
  const double vc = f.capVoltage(1e-6);
  const double vy = f.controlVoltage(1e-6);
  // vy - vc = (Vdd - vc) * R2/(R1+R2): the proportional (zero) path.
  EXPECT_NEAR(vy - vc, (5.0 - vc) * cfg.r2_ohm / (cfg.r1_ohm + cfg.r2_ohm), 1e-9);
}

TEST(PumpFilter, BothOnIsHighZForVoltageKind) {
  Bench b;
  PumpFilter f(voltageConfig());
  b.wire(f);
  b.c.scheduleSet(b.up, 0.0, true);
  b.c.scheduleSet(b.dn, 0.0, true);
  b.c.run(0.0);
  b.c.run(0.1);
  EXPECT_NEAR(f.capVoltage(0.1), 2.5, 1e-12);  // dead-zone overlap pumps nothing
}

TEST(PumpFilter, CurrentPumpRampsLinearly) {
  Bench b;
  const PumpFilterConfig cfg = currentConfig();
  PumpFilter f(cfg);
  b.wire(f);
  b.c.scheduleSet(b.up, 0.0, true);
  const double slope = cfg.pump_current_a / cfg.c_farad;  // 100 V/s
  b.c.run(1e-3);
  EXPECT_NEAR(f.capVoltage(1e-3), 2.5 + slope * 1e-3, 1e-9);
  // Output node offset by I*R2 while pumping.
  EXPECT_NEAR(f.controlVoltage(1e-3) - f.capVoltage(1e-3), cfg.pump_current_a * cfg.r2_ohm, 1e-9);
}

TEST(PumpFilter, CurrentPumpDownRampsNegative) {
  Bench b;
  const PumpFilterConfig cfg = currentConfig();
  PumpFilter f(cfg);
  b.wire(f);
  b.c.scheduleSet(b.dn, 0.0, true);
  b.c.run(1e-3);
  EXPECT_NEAR(f.capVoltage(1e-3), 2.5 - 0.1, 1e-9);
}

TEST(PumpFilter, CurrentPumpBothOnLeavesMismatchResidue) {
  Bench b;
  PumpFilterConfig cfg = currentConfig();
  cfg.up_strength = 1.0;
  cfg.down_strength = 0.8;  // classic up/down mismatch
  PumpFilter f(cfg);
  b.wire(f);
  b.c.scheduleSet(b.up, 0.0, true);
  b.c.scheduleSet(b.dn, 0.0, true);
  b.c.run(1e-3);
  const double residue = cfg.pump_current_a * 0.2 / cfg.c_farad;  // 20 V/s up
  EXPECT_NEAR(f.capVoltage(1e-3), 2.5 + residue * 1e-3, 1e-9);
}

TEST(PumpFilter, DriveStrengthScalesVoltageKind) {
  Bench weak_bench, strong_bench;
  PumpFilterConfig weak_cfg = voltageConfig();
  weak_cfg.up_strength = 0.5;  // doubled effective R1
  PumpFilter weak(weak_cfg);
  weak_bench.wire(weak);
  PumpFilter strong(voltageConfig());
  strong_bench.wire(strong);
  weak_bench.c.scheduleSet(weak_bench.up, 0.0, true);
  strong_bench.c.scheduleSet(strong_bench.up, 0.0, true);
  weak_bench.c.run(1e-3);
  strong_bench.c.run(1e-3);
  EXPECT_LT(weak.capVoltage(1e-3), strong.capVoltage(1e-3));
}

TEST(PumpFilter, LeakageDischargesDuringHighZ) {
  Bench b;
  PumpFilterConfig cfg = voltageConfig();
  cfg.leak_ohm = 1e6;
  PumpFilter f(cfg);
  b.wire(f);
  const double tau = cfg.c_farad * (cfg.r2_ohm + cfg.leak_ohm);  // ~1.001 s
  b.c.run(tau);
  EXPECT_NEAR(f.capVoltage(tau), 2.5 * std::exp(-1.0), 1e-6);
}

TEST(PumpFilter, ClampsAtRails) {
  Bench b;
  const PumpFilterConfig cfg = currentConfig();  // ideal ramp would exceed vdd
  PumpFilter f(cfg);
  b.wire(f);
  b.c.scheduleSet(b.up, 0.0, true);
  b.c.run(1.0);  // 100 V/s for 1 s >> rails
  EXPECT_DOUBLE_EQ(f.capVoltage(1.0), 5.0);
  b.c.scheduleSet(b.dn, 1.0, true);  // now both on; mismatch-free -> hold
  b.c.scheduleSet(b.up, 1.0, false); // then down only
  b.c.run(1.0);
  b.c.run(2.0);
  EXPECT_GE(f.capVoltage(2.0), 0.0);
}

TEST(PumpFilter, PulseTrainIntegratesNet) {
  // Equal up and down pulse widths from the same voltage -> near-zero net
  // change (by symmetry about mid-rail).
  Bench b;
  PumpFilter f(voltageConfig());
  b.wire(f);
  for (int k = 0; k < 10; ++k) {
    const double t0 = k * 1e-3;
    b.c.scheduleSet(b.up, t0, true);
    b.c.scheduleSet(b.up, t0 + 1e-5, false);
    b.c.scheduleSet(b.dn, t0 + 5e-4, true);
    b.c.scheduleSet(b.dn, t0 + 5e-4 + 1e-5, false);
  }
  b.c.run(10e-3);
  EXPECT_NEAR(f.capVoltage(10e-3), 2.5, 2e-3);
}


TEST(PumpFilter, CurrentPumpWithLeakSettlesAtIrDrop) {
  // Leaky node driven by a constant current: vc -> I/gl (exponential), the
  // general regime of the analytic model.
  Bench b;
  PumpFilterConfig cfg = currentConfig();
  cfg.leak_ohm = 20e3;  // I*Rl = 100uA * 20k = 2 V above vss
  PumpFilter f(cfg);
  b.wire(f);
  b.c.scheduleSet(b.up, 0.0, true);
  const double tau = cfg.c_farad * (cfg.r2_ohm + cfg.leak_ohm);
  b.c.run(10.0 * tau);
  EXPECT_NEAR(f.capVoltage(10.0 * tau), 2.0, 1e-3);
}

TEST(PumpFilter, DriveSwitchesTheRegime) {
  // Voltage pump: one side on drives the node, both or neither hold it.
  PumpFilter f(voltageConfig());
  EXPECT_TRUE(f.frozen());
  EXPECT_TRUE(f.isHighZ());
  f.drive(1e-3, false, true);
  EXPECT_FALSE(f.frozen());
  EXPECT_FALSE(f.isHighZ());
  f.drive(2e-3, true, true);
  EXPECT_TRUE(f.frozen());
  f.drive(3e-3, false, false);
  EXPECT_FALSE(f.frozen());
  f.drive(4e-3, true, false);
  EXPECT_TRUE(f.frozen());
  EXPECT_TRUE(f.isHighZ());
  // The drive charged the node for 1 ms and discharged it for 1 ms.
  EXPECT_NE(f.capVoltage(4e-3), voltageConfig().initial_vc_v);
}

}  // namespace
}  // namespace pllbist::pll
