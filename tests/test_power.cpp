// Unit tests for the power substrate: McPAT-lite core model, Liao-He
// interconnect power, and the energy ledger / EDP arithmetic.
#include <gtest/gtest.h>

#include "power/core_power.hpp"
#include "power/energy_ledger.hpp"
#include "power/interconnect_power.hpp"

namespace mot3d::power {
namespace {

TEST(CorePower, DynamicEnergyPerInstruction) {
  CorePowerParams p;
  p.energy_per_instr_pj = 60.0;
  p.energy_per_l1_access_pj = 8.0;
  CorePowerModel m(p);
  EXPECT_DOUBLE_EQ(m.dynamic_pj(1000, 300), 1000 * 60.0 + 300 * 8.0);
}

TEST(CorePower, SpinBurnsFractionOfActivePower) {
  CorePowerParams p;
  CorePowerModel m(p);
  const double full = static_cast<double>(1000) * p.energy_per_instr_pj;
  EXPECT_NEAR(m.spin_pj(1000) / full, p.spin_fraction, 1e-12);
}

TEST(CorePower, StaticEnergyIsLeakagePlusClockTree) {
  CorePowerParams p;
  p.leakage_mw = 12.0;
  p.clock_tree_mw = 3.0;
  CorePowerModel m(p);
  // mW * ns = pJ: 15 mW over 1000 cycles (1 µs) = 15 nJ.
  EXPECT_DOUBLE_EQ(m.static_pj(1000), 15000.0);
}

TEST(EnergyLedger, AccumulatesPerComponent) {
  EnergyLedger l;
  l.add_dynamic(Component::kCore, 100.0);
  l.add_static(Component::kCore, 50.0);
  l.add_dynamic(Component::kL2, 30.0);
  EXPECT_DOUBLE_EQ(l.component_pj(Component::kCore), 150.0);
  EXPECT_DOUBLE_EQ(l.dynamic_pj(Component::kL2), 30.0);
  EXPECT_DOUBLE_EQ(l.static_pj(Component::kL2), 0.0);
}

TEST(EnergyLedger, DramExcludedFromEdp) {
  EnergyLedger l;
  l.add_dynamic(Component::kCore, 100.0);
  l.add_dynamic(Component::kDram, 1e9);
  EXPECT_DOUBLE_EQ(l.edp_energy_pj(), 100.0);
  EXPECT_DOUBLE_EQ(l.total_pj(), 100.0 + 1e9);
}

TEST(EnergyLedger, EdpArithmetic) {
  EnergyLedger l;
  l.add_dynamic(Component::kInterconnect, 2000.0);  // 2 nJ
  // 2000 pJ over 1000 cycles (1 µs): EDP = 2000 pJ * 1e-6 s.
  EXPECT_DOUBLE_EQ(l.edp_pj_s(1000), 2000.0 * 1e-6);
  // Average power: 2 nJ / 1 µs = 2 mW.
  EXPECT_NEAR(l.average_power_w(1000), 0.002, 1e-12);
}

TEST(EnergyLedger, ComponentNames) {
  EXPECT_STREQ(component_name(Component::kCore), "core");
  EXPECT_STREQ(component_name(Component::kDram), "dram");
}

TEST(InterconnectPower, RouterHopEnergyIsSumOfStages) {
  RouterPowerParams rp;
  phys::WireModel wire{phys::default_technology()};
  InterconnectPowerModel m(wire, rp);
  EXPECT_DOUBLE_EQ(m.router_hop_pj(),
                   rp.buffer_write_pj_per_flit + rp.buffer_read_pj_per_flit +
                       rp.crossbar_pj_per_flit + rp.arbitration_pj_per_flit);
}

TEST(InterconnectPower, WireTransferScalesWithBits) {
  phys::WireModel wire{phys::default_technology()};
  InterconnectPowerModel m(wire);
  const double e64 = m.wire_transfer_pj(2.0, 64);
  const double e128 = m.wire_transfer_pj(2.0, 128);
  EXPECT_NEAR(e128 / e64, 2.0, 1e-9);
  EXPECT_GT(e64, 0.0);
}

TEST(InterconnectPower, WireLeakageNeedsRepeaters) {
  phys::WireModel wire{phys::default_technology()};
  InterconnectPowerModel m(wire);
  EXPECT_DOUBLE_EQ(m.wire_leakage_mw(0.5, 64), 0.0);  // short wire: none
  EXPECT_GT(m.wire_leakage_mw(40.0, 64), 0.0);
}

}  // namespace
}  // namespace mot3d::power
