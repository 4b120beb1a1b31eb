// Unit tests for the physical models: Elmore wire delay with repeater
// insertion, the TSV/micro-bump model, and the cluster floorplan geometry
// (Fig. 5's wire-length asymmetry).
#include <gtest/gtest.h>

#include "phys/geometry.hpp"
#include "phys/technology.hpp"
#include "phys/tsv.hpp"
#include "phys/wire.hpp"

namespace mot3d::phys {
namespace {

class WireTest : public ::testing::Test {
 protected:
  TechnologyParams tech = default_technology();
  WireModel wire{tech};
};

TEST_F(WireTest, ZeroLengthIsFree) {
  EXPECT_DOUBLE_EQ(wire.unrepeated_delay_ns(0.0), 0.0);
  EXPECT_DOUBLE_EQ(wire.repeated_delay_ns(0.0), 0.0);
  EXPECT_EQ(wire.repeater_count(0.0), 0u);
  EXPECT_DOUBLE_EQ(wire.switch_energy_fj_per_bit(0.0), 0.0);
}

TEST_F(WireTest, UnrepeatedDelayIsQuadratic) {
  const double d1 = wire.unrepeated_delay_ns(1.0);
  const double d2 = wire.unrepeated_delay_ns(2.0);
  const double d4 = wire.unrepeated_delay_ns(4.0);
  EXPECT_NEAR(d2 / d1, 4.0, 1e-9);
  EXPECT_NEAR(d4 / d1, 16.0, 1e-9);
}

TEST_F(WireTest, RepeatedDelayIsLinearBeyondSpacing) {
  // With repeaters every 1 mm, doubling a long wire doubles the delay.
  const double d4 = wire.repeated_delay_ns(4.0);
  const double d8 = wire.repeated_delay_ns(8.0);
  EXPECT_NEAR(d8 / d4, 2.0, 1e-9);
}

TEST_F(WireTest, RepeatedBeatsUnrepeatedForLongWires) {
  EXPECT_LT(wire.repeated_delay_ns(5.0), wire.unrepeated_delay_ns(5.0));
}

TEST_F(WireTest, ShortWireHasNoRepeaters) {
  EXPECT_EQ(wire.repeater_count(0.5), 0u);
  EXPECT_EQ(wire.repeater_count(1.0), 0u);  // boundary: driver only
  EXPECT_EQ(wire.repeater_count(1.5), 1u);
  EXPECT_EQ(wire.repeater_count(2.0), 1u);
  EXPECT_EQ(wire.repeater_count(3.5), 3u);
}

TEST_F(WireTest, SegmentDelayCalibration) {
  // 1 mm of the calibrated channel wire: ~0.445 ns (see DESIGN.md).
  EXPECT_NEAR(wire.segment_delay_ns(1.0), 0.445, 0.01);
}

TEST_F(WireTest, OptimalSpacingIsPositiveAndFinite) {
  const double s = wire.optimal_spacing_mm();
  EXPECT_GT(s, 0.01);
  EXPECT_LT(s, 10.0);
}

TEST_F(WireTest, EnergyScalesWithLengthAndVdd) {
  const double e1 = wire.switch_energy_fj_per_bit(1.0);
  const double e2 = wire.switch_energy_fj_per_bit(2.0);
  EXPECT_GT(e2, 1.9 * e1);  // capacitance is ~linear in length

  TechnologyParams hot = tech;
  hot.vdd_v = 1.2;
  WireModel hot_wire(hot);
  EXPECT_NEAR(hot_wire.switch_energy_fj_per_bit(1.0) / e1, 1.44, 0.01);
}

TEST_F(WireTest, LeakageCountsRepeaters) {
  EXPECT_DOUBLE_EQ(wire.leakage_uw_per_bit(0.5), 0.0);
  EXPECT_NEAR(wire.leakage_uw_per_bit(2.0), tech.repeater_leak_uw, 1e-9);
}

class TsvTest : public ::testing::Test {
 protected:
  TechnologyParams tech = default_technology();
  TsvModel tsv{tech};
};

TEST_F(TsvTest, TsvIsElectricallyShort) {
  // Vertical hops are tens of picoseconds — the premise of 3-D stacking.
  EXPECT_LT(tsv.tsv_delay_ns(), 0.05);
  EXPECT_GT(tsv.tsv_delay_ns(), 0.0);
}

TEST_F(TsvTest, StackDelayScalesWithTiers) {
  EXPECT_NEAR(tsv.stack_delay_ns(2), 2.0 * tsv.tsv_delay_ns(), 1e-12);
}

class GeometryTest : public ::testing::Test {
 protected:
  TechnologyParams tech = default_technology();
  FloorplanParams fp;
  ClusterGeometry geo{fp, tech};
};

TEST_F(GeometryTest, SpansScaleWithActiveCount) {
  EXPECT_NEAR(geo.bank_field_span_mm(32), 4.0, 1e-9);
  EXPECT_NEAR(geo.bank_field_span_mm(8), 1.0, 1e-9);
  EXPECT_NEAR(geo.core_field_span_mm(16), 4.0, 1e-9);
  EXPECT_NEAR(geo.core_field_span_mm(4), 1.0, 1e-9);
}

TEST_F(GeometryTest, TreeLevelsHalve) {
  EXPECT_NEAR(ClusterGeometry::tree_level_length_mm(4.0, 0), 2.0, 1e-12);
  EXPECT_NEAR(ClusterGeometry::tree_level_length_mm(4.0, 1), 1.0, 1e-12);
  EXPECT_NEAR(ClusterGeometry::tree_level_length_mm(4.0, 4), 0.125, 1e-12);
}

TEST_F(GeometryTest, RoutingTreeLevelCount) {
  EXPECT_EQ(geo.routing_tree_levels_mm(32).size(), 5u);
  EXPECT_EQ(geo.routing_tree_levels_mm(8).size(), 3u);
  EXPECT_EQ(geo.arbitration_tree_levels_mm(16).size(), 4u);
}

TEST_F(GeometryTest, GatingShortensWorstCaseWire) {
  // Fig. 5: the gated state's longest link is much shorter.
  const double full = geo.longest_link_mm(16, 32);
  const double gated = geo.longest_link_mm(4, 8);
  EXPECT_GT(full, 3.0 * gated * 0.9);
  EXPECT_GT(full, gated);
}

TEST_F(GeometryTest, PathLengthsShrinkWithGating) {
  EXPECT_GT(geo.request_path_mm(16, 32), geo.request_path_mm(16, 8));
  EXPECT_GT(geo.request_path_mm(16, 32), geo.request_path_mm(4, 32));
  EXPECT_GT(geo.request_path_mm(4, 32), geo.request_path_mm(4, 8));
}

TEST_F(GeometryTest, RequestAndResponsePathsMirror) {
  EXPECT_NEAR(geo.request_path_mm(16, 32), geo.response_path_mm(16, 32), 1e-9);
}

TEST_F(GeometryTest, VerticalDistanceTiny) {
  EXPECT_NEAR(geo.vertical_mm(2), 0.08, 1e-9);
}

}  // namespace
}  // namespace mot3d::phys
