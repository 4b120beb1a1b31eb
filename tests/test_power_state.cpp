// Unit tests for the power states: Table I presets, the centre-fold bank
// remap (must reproduce the paper's Fig. 4 example exactly), masks and
// thread placement.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/power_state.hpp"

namespace mot3d::core {
namespace {

TEST(PowerState, PaperPresets) {
  EXPECT_EQ(PowerState::full().active_cores(), 16u);
  EXPECT_EQ(PowerState::full().active_banks(), 32u);
  EXPECT_EQ(PowerState::pc16_mb8().active_banks(), 8u);
  EXPECT_EQ(PowerState::pc4_mb32().active_cores(), 4u);
  EXPECT_EQ(PowerState::pc4_mb8().active_cores(), 4u);
  EXPECT_EQ(PowerState::pc4_mb8().active_banks(), 8u);
  EXPECT_EQ(PowerState::paper_states().size(), 4u);
}

TEST(PowerState, ForcedLevels) {
  EXPECT_EQ(PowerState::full().forced_bank_levels(), 0u);
  EXPECT_EQ(PowerState::pc16_mb8().forced_bank_levels(), 2u);
}

TEST(PowerState, Fig4ExampleExactRemap) {
  // The paper's 8-bank example: M0->M2, M1->M3, M6->M4, M7->M5 while
  // M2..M5 stay in place.
  const PowerState s("fig4", 4, 4, 8, 4);
  EXPECT_EQ(s.remap_bank(0), 2u);
  EXPECT_EQ(s.remap_bank(1), 3u);
  EXPECT_EQ(s.remap_bank(6), 4u);
  EXPECT_EQ(s.remap_bank(7), 5u);
  EXPECT_EQ(s.remap_bank(2), 2u);
  EXPECT_EQ(s.remap_bank(3), 3u);
  EXPECT_EQ(s.remap_bank(4), 4u);
  EXPECT_EQ(s.remap_bank(5), 5u);
}

TEST(PowerState, RemapIdentityWhenFull) {
  const PowerState s = PowerState::full();
  for (BankId b = 0; b < 32; ++b) EXPECT_EQ(s.remap_bank(b), b);
}

TEST(PowerState, RemapTargetsAreActiveCentreGroup) {
  const PowerState s = PowerState::pc16_mb8();
  std::set<BankId> targets;
  for (BankId b = 0; b < 32; ++b) {
    const BankId p = s.remap_bank(b);
    EXPECT_TRUE(s.bank_active(p)) << "logical " << b << " -> " << p;
    targets.insert(p);
  }
  // Every active bank receives data (the fold is onto, not into).
  EXPECT_EQ(targets.size(), 8u);
  // Centre group of 32: banks 12..19.
  EXPECT_TRUE(targets.count(12));
  EXPECT_TRUE(targets.count(19));
  EXPECT_FALSE(targets.count(11));
  EXPECT_FALSE(targets.count(20));
}

TEST(PowerState, SurvivorsMapToThemselves) {
  const PowerState s = PowerState::pc16_mb8();
  for (BankId b = 0; b < 32; ++b) {
    if (s.bank_active(b)) {
      EXPECT_EQ(s.remap_bank(b), b);
    }
  }
}

TEST(PowerState, FoldIsBalanced) {
  // Each active bank absorbs exactly total/active logical banks.
  const PowerState s = PowerState::pc16_mb8();
  std::map<BankId, int> load;
  for (BankId b = 0; b < 32; ++b) ++load[s.remap_bank(b)];
  for (const auto& [bank, n] : load) EXPECT_EQ(n, 4) << "bank " << bank;
}

TEST(PowerState, SingleBankDegenerateCase) {
  const PowerState s("one", 4, 4, 8, 1);
  for (BankId b = 0; b < 8; ++b) EXPECT_EQ(s.remap_bank(b), 4u);
  EXPECT_TRUE(s.bank_active(4));
  EXPECT_FALSE(s.bank_active(3));
}

TEST(PowerState, CoreMaskCentred) {
  const PowerState s = PowerState::pc4_mb32();
  std::size_t active = 0;
  for (CoreId c = 0; c < s.total_cores(); ++c) active += s.core_active(c);
  EXPECT_EQ(active, 4u);
  EXPECT_TRUE(s.core_active(6) && s.core_active(7) && s.core_active(8) &&
              s.core_active(9));
  EXPECT_FALSE(s.core_active(5) || s.core_active(10));
}

TEST(PowerState, ThreadPlacement) {
  const PowerState s = PowerState::pc4_mb32();
  EXPECT_EQ(s.core_of_thread(0), 6u);
  EXPECT_EQ(s.core_of_thread(3), 9u);
  EXPECT_THROW(s.core_of_thread(4), std::out_of_range);
  EXPECT_EQ(PowerState::full().core_of_thread(13), 13u);
}

TEST(PowerState, Validation) {
  EXPECT_THROW(PowerState("bad", 16, 3, 32, 32), std::invalid_argument);
  EXPECT_THROW(PowerState("bad", 16, 32, 32, 32), std::invalid_argument);
}

TEST(PowerState, EqualityIgnoresName) {
  EXPECT_TRUE(PowerState("a", 16, 16, 32, 32) == PowerState::full());
  EXPECT_FALSE(PowerState::pc16_mb8() == PowerState::full());
}

class RemapProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RemapProperty, FoldOntoActiveForEveryGatingDepth) {
  const std::size_t active = GetParam();
  const PowerState s("p", 16, 16, 32, active);
  std::set<BankId> targets;
  for (BankId b = 0; b < 32; ++b) {
    const BankId p = s.remap_bank(b);
    EXPECT_TRUE(s.bank_active(p));
    targets.insert(p);
  }
  EXPECT_EQ(targets.size(), active);
}

INSTANTIATE_TEST_SUITE_P(GatingDepths, RemapProperty,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

}  // namespace
}  // namespace mot3d::core
