// Unit tests for the MoT switch primitives: the modified routing switch of
// Fig. 3 (conventional vs. user-defined routing and power gating) and the
// round-robin arbitration switch of Fig. 2(c), whose grant rule is
// ArbitrationTree::grant and whose state is one byte of a tree.
#include <gtest/gtest.h>

#include "core/arbitration_tree.hpp"
#include "core/switch.hpp"

namespace mot3d::core {
namespace {

TEST(RoutingSwitch, ConventionalRoutesByAddressBit) {
  RoutingSwitch sw(/*addr_bit=*/2);
  EXPECT_EQ(sw.route(0b000), 0u);
  EXPECT_EQ(sw.route(0b100), 1u);
  EXPECT_EQ(sw.route(0b011), 0u);
  EXPECT_EQ(sw.route(0b111), 1u);
}

TEST(RoutingSwitch, UserDefinedIgnoresAddress) {
  RoutingSwitch sw(2);
  sw.set_mode(RouteMode::kForcePort0);
  EXPECT_EQ(sw.route(0b100), 0u);
  EXPECT_EQ(sw.route(0b000), 0u);
  sw.set_mode(RouteMode::kForcePort1);
  EXPECT_EQ(sw.route(0b000), 1u);
  EXPECT_EQ(sw.route(0b100), 1u);
}

TEST(RoutingSwitch, PowerGatedBlocks) {
  RoutingSwitch sw(0);
  sw.set_mode(RouteMode::kPowerGated);
  EXPECT_EQ(sw.route(0), std::nullopt);
  EXPECT_FALSE(sw.powered());
}

TEST(ArbitrationSwitch, SingleRequesterWins) {
  for (unsigned prefer : {0u, 1u}) {
    SCOPED_TRACE(prefer);
    EXPECT_EQ(ArbitrationTree::grant(true, prefer, true, false), 0u);
    EXPECT_EQ(ArbitrationTree::grant(true, prefer, false, true), 1u);
    EXPECT_EQ(ArbitrationTree::grant(true, prefer, false, false), std::nullopt);
  }
}

TEST(ArbitrationSwitch, RoundRobinAlternatesUnderContention) {
  // On a tie the preferred input wins, and a one-switch tree then prefers
  // the loser.
  EXPECT_EQ(ArbitrationTree::grant(true, 0, true, true), 0u);
  EXPECT_EQ(ArbitrationTree::grant(true, 1, true, true), 1u);
  ArbitrationTree sw(2);
  const unsigned first = *sw.arbitrate({true, true});
  const unsigned second = *sw.arbitrate({true, true});
  const unsigned third = *sw.arbitrate({true, true});
  EXPECT_NE(first, second);
  EXPECT_EQ(first, third);
}

TEST(ArbitrationSwitch, GrantRotatesPriorityEvenWithoutContention) {
  ArbitrationTree sw(2);
  EXPECT_EQ(*sw.arbitrate({true, false}), 0u);
  // After granting 0, a tie must go to 1.
  EXPECT_EQ(*sw.arbitrate({true, true}), 1u);
}

TEST(ArbitrationSwitch, GatedGrantsNothing) {
  for (unsigned prefer : {0u, 1u}) {
    SCOPED_TRACE(prefer);
    EXPECT_EQ(ArbitrationTree::grant(false, prefer, true, true), std::nullopt);
    EXPECT_EQ(ArbitrationTree::grant(false, prefer, true, false), std::nullopt);
    EXPECT_EQ(ArbitrationTree::grant(false, prefer, false, true), std::nullopt);
  }
}

}  // namespace
}  // namespace mot3d::core
