#include "pll/faults.hpp"

#include <gtest/gtest.h>

#include "common/units.hpp"
#include "support/test_configs.hpp"

namespace pllbist::pll {
namespace {

using pllbist::testing::fastTestConfig;

TEST(Faults, NoneLeavesConfigUntouched) {
  const PllConfig golden = fastTestConfig();
  const PllConfig same = applyFault(golden, {FaultSpec::Kind::None, 0.0});
  EXPECT_EQ(same.vco.gain_hz_per_v, golden.vco.gain_hz_per_v);
  EXPECT_EQ(same.pump.r2_ohm, golden.pump.r2_ohm);
}

TEST(Faults, VcoGainDriftScalesGain) {
  const PllConfig golden = fastTestConfig();
  const PllConfig faulty = applyFault(golden, {FaultSpec::Kind::VcoGainDrift, 0.5});
  EXPECT_DOUBLE_EQ(faulty.vco.gain_hz_per_v, golden.vco.gain_hz_per_v * 0.5);
}

TEST(Faults, VcoCenterDriftScalesCenter) {
  const PllConfig golden = fastTestConfig();
  const PllConfig faulty = applyFault(golden, {FaultSpec::Kind::VcoCenterDrift, 1.1});
  EXPECT_DOUBLE_EQ(faulty.vco.center_frequency_hz, golden.vco.center_frequency_hz * 1.1);
}

TEST(Faults, PumpStrengthFaults) {
  const PllConfig golden = fastTestConfig();
  EXPECT_DOUBLE_EQ(applyFault(golden, {FaultSpec::Kind::PumpUpWeak, 0.4}).pump.up_strength, 0.4);
  EXPECT_DOUBLE_EQ(applyFault(golden, {FaultSpec::Kind::PumpDownWeak, 0.3}).pump.down_strength,
                   0.3);
}

TEST(Faults, FilterComponentDrift) {
  const PllConfig golden = fastTestConfig();
  EXPECT_DOUBLE_EQ(applyFault(golden, {FaultSpec::Kind::FilterR2Drift, 2.0}).pump.r2_ohm,
                   golden.pump.r2_ohm * 2.0);
  EXPECT_DOUBLE_EQ(applyFault(golden, {FaultSpec::Kind::FilterCDrift, 0.5}).pump.c_farad,
                   golden.pump.c_farad * 0.5);
}

TEST(Faults, FilterLeakSetsResistance) {
  const PllConfig golden = fastTestConfig();
  const PllConfig faulty = applyFault(golden, {FaultSpec::Kind::FilterLeak, 2e6});
  EXPECT_DOUBLE_EQ(faulty.pump.leak_ohm, 2e6);
}

TEST(Faults, PfdDeadZoneScalesAllDelays) {
  const PllConfig golden = fastTestConfig();
  const PllConfig faulty = applyFault(golden, {FaultSpec::Kind::PfdDeadZone, 3.0});
  EXPECT_DOUBLE_EQ(faulty.pfd.and_delay_s, golden.pfd.and_delay_s * 3.0);
  EXPECT_DOUBLE_EQ(faulty.pfd.ff_reset_to_q_s, golden.pfd.ff_reset_to_q_s * 3.0);
  EXPECT_DOUBLE_EQ(faulty.pfd.ff_clk_to_q_s, golden.pfd.ff_clk_to_q_s * 3.0);
}

TEST(Faults, InvalidMagnitudesThrow) {
  const PllConfig golden = fastTestConfig();
  EXPECT_THROW((void)applyFault(golden, {FaultSpec::Kind::VcoGainDrift, 0.0}),
               std::invalid_argument);
  EXPECT_THROW((void)applyFault(golden, {FaultSpec::Kind::FilterLeak, -1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)applyFault(golden, {FaultSpec::Kind::PumpUpWeak, -0.5}),
               std::invalid_argument);
}

TEST(Faults, DescriptionsAreInformative) {
  EXPECT_EQ(FaultSpec{}.describe(), "none");
  const FaultSpec f{FaultSpec::Kind::VcoGainDrift, 0.5};
  EXPECT_NE(f.describe().find("vco-gain-drift"), std::string::npos);
  EXPECT_NE(f.describe().find("0.5"), std::string::npos);
  EXPECT_EQ(to_string(FaultSpec::Kind::FilterLeak), "filter-leak");
}

TEST(Faults, StandardSetIsValidAndDiverse) {
  const PllConfig golden = fastTestConfig();
  const auto faults = standardFaultSet();
  EXPECT_GE(faults.size(), 6u);
  for (const FaultSpec& f : faults) {
    EXPECT_NE(f.kind, FaultSpec::Kind::None);
    EXPECT_NO_THROW((void)applyFault(golden, f)) << f.describe();
  }
}

TEST(Faults, FaultsShiftTheDesignedResponse) {
  // Each filter/VCO fault must move fn or zeta of the linearised model —
  // that is what makes it detectable by the transfer-function signature.
  const PllConfig golden = fastTestConfig();
  const auto base = golden.secondOrder();
  for (const FaultSpec& f : {FaultSpec{FaultSpec::Kind::VcoGainDrift, 0.5},
                             FaultSpec{FaultSpec::Kind::FilterCDrift, 0.5},
                             FaultSpec{FaultSpec::Kind::FilterR2Drift, 3.0}}) {
    const auto so = applyFault(golden, f).secondOrder();
    const double fn_shift = std::abs(so.omega_n_rad_per_s - base.omega_n_rad_per_s) /
                            base.omega_n_rad_per_s;
    const double zeta_shift = std::abs(so.zeta - base.zeta) / base.zeta;
    EXPECT_GT(fn_shift + zeta_shift, 0.15) << f.describe();
  }
}

}  // namespace
}  // namespace pllbist::pll
