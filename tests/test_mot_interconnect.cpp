// Unit tests for the cycle-level MoT transport: unloaded pipeline latency
// (must equal the Table I budget), non-blocking behaviour across banks,
// per-bank round-robin conflict resolution, remap delivery under gating,
// and energy/stat accounting.
#include <gtest/gtest.h>

#include <map>

#include "cacti/sram_model.hpp"
#include "core/mot_interconnect.hpp"
#include "memory_test_doubles.hpp"

namespace mot3d::core {
namespace {

class MotIcnTest : public ::testing::Test {
 protected:
  phys::TechnologyParams tech = phys::default_technology();
  phys::FloorplanParams fp;
  cacti::SramBankConfig bank;
  MotTimingModel model{tech, fp, bank};

  DeliveryLog got;

  MotInterconnect make(const PowerState& s) { return MotInterconnect(model, s); }

  static MemRequest req(CoreId c, BankId b, std::uint64_t id = 1) {
    return MemRequest{.id = id, .core = c, .bank = b, .addr = 0, .is_write = false,
                      .issue_cycle = 0};
  }
};

TEST_F(MotIcnTest, UnloadedRequestLatencyMatchesPipeline) {
  MotInterconnect icn = make(PowerState::full());
  ASSERT_TRUE(icn.try_inject_request(req(0, 5), 0));
  const unsigned expect = icn.state_timing().request_cycles;
  for (Cycle t = 0; t <= expect + 2; ++t) got.tick(icn, t);
  ASSERT_EQ(got.requests.size(), 1u);
  EXPECT_EQ(got.requests[0].second, expect);
  EXPECT_EQ(got.requests[0].first.bank, 5u);  // identity remap at full
}

TEST_F(MotIcnTest, UnloadedResponseLatencyMatchesPipeline) {
  MotInterconnect icn = make(PowerState::full());
  MemResponse resp{.id = 1, .core = 2, .bank = 7, .addr = 0, .is_write = false,
                   .l2_hit = true, .issue_cycle = 0};
  ASSERT_TRUE(icn.try_inject_response(resp, 10));
  const unsigned expect = icn.state_timing().response_cycles;
  for (Cycle t = 10; t <= 10 + expect + 2; ++t) got.tick(icn, t);
  ASSERT_EQ(got.responses.size(), 1u);
  EXPECT_EQ(got.responses[0].second, 10 + expect);
}

TEST_F(MotIcnTest, NonBlockingAcrossDistinctBanks) {
  // All 16 cores hit 16 distinct banks the same cycle: all delivered
  // together — the MoT's non-blocking property.
  MotInterconnect icn = make(PowerState::full());
  for (CoreId c = 0; c < 16; ++c) {
    ASSERT_TRUE(icn.try_inject_request(req(c, c, c + 1), 0));
  }
  const unsigned expect = icn.state_timing().request_cycles;
  for (Cycle t = 0; t <= expect; ++t) got.tick(icn, t);
  EXPECT_EQ(got.requests.size(), 16u);
  for (const auto& [r, at] : got.requests) EXPECT_EQ(at, expect);
  EXPECT_EQ(icn.stats().arbitration_wait_cycles, 0u);
}

TEST_F(MotIcnTest, SameBankConflictsSerialiseRoundRobin) {
  MotInterconnect icn = make(PowerState::full());
  for (CoreId c = 0; c < 4; ++c) {
    ASSERT_TRUE(icn.try_inject_request(req(c, 9, c + 1), 0));
  }
  for (Cycle t = 0; t <= 60; ++t) got.tick(icn, t);
  ASSERT_EQ(got.requests.size(), 4u);
  // Grants spaced by the circuit hold (bank_hold_cycles = 2 default).
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_GE(got.requests[i].second, got.requests[i - 1].second + 2);
  }
  // All four cores served (starvation-free).
  std::map<CoreId, int> served;
  for (const auto& [r, at] : got.requests) ++served[r.core];
  EXPECT_EQ(served.size(), 4u);
  EXPECT_GT(icn.stats().arbitration_wait_cycles, 0u);
}

TEST_F(MotIcnTest, GatedStateRemapsToPhysicalBanks) {
  MotInterconnect icn = make(PowerState::pc16_mb8());
  // Logical bank 0 folds onto physical bank 12 (centre group).
  ASSERT_TRUE(icn.try_inject_request(req(0, 0), 0));
  for (Cycle t = 0; t <= 20; ++t) got.tick(icn, t);
  ASSERT_EQ(got.requests.size(), 1u);
  EXPECT_EQ(got.requests[0].first.bank, 12u);
  EXPECT_EQ(icn.route(31), 19u);
}

TEST_F(MotIcnTest, GatedStateIsFaster) {
  MotInterconnect full = make(PowerState::full());
  MotInterconnect gated = make(PowerState::pc4_mb8());
  EXPECT_LT(gated.state_timing().l2_round_trip(), full.state_timing().l2_round_trip());
  EXPECT_LT(gated.leakage_mw(), full.leakage_mw());
}

TEST_F(MotIcnTest, OneOutstandingPerCore) {
  MotInterconnect icn = make(PowerState::full());
  EXPECT_TRUE(icn.try_inject_request(req(3, 1, 1), 0));
  EXPECT_FALSE(icn.try_inject_request(req(3, 2, 2), 0));  // slot held
  for (Cycle t = 0; t <= 20; ++t) got.tick(icn, t);
  EXPECT_TRUE(icn.try_inject_request(req(3, 2, 2), 21));
}

TEST_F(MotIcnTest, IdleTracksInFlightWork) {
  MotInterconnect icn = make(PowerState::full());
  EXPECT_TRUE(icn.idle());
  icn.try_inject_request(req(0, 0), 0);
  EXPECT_FALSE(icn.idle());
  for (Cycle t = 0; t <= 20; ++t) got.tick(icn, t);
  EXPECT_TRUE(icn.idle());
}

TEST_F(MotIcnTest, EnergyAccumulatesPerTransaction) {
  MotInterconnect icn = make(PowerState::full());
  const double e0 = icn.dynamic_energy_pj();
  icn.try_inject_request(req(0, 0), 0);
  const double e1 = icn.dynamic_energy_pj();
  EXPECT_GT(e1, e0);
  MemResponse resp{.id = 1, .core = 0, .bank = 0, .addr = 0, .is_write = false,
                   .l2_hit = true, .issue_cycle = 0};
  icn.try_inject_response(resp, 5);
  EXPECT_GT(icn.dynamic_energy_pj(), e1);
}

TEST_F(MotIcnTest, StatsCount) {
  MotInterconnect icn = make(PowerState::full());
  icn.try_inject_request(req(0, 0), 0);
  for (Cycle t = 0; t <= 20; ++t) got.tick(icn, t);
  EXPECT_EQ(icn.stats().requests_injected, 1u);
  EXPECT_EQ(icn.stats().requests_delivered, 1u);
}

TEST_F(MotIcnTest, ReconfigureChangesTimingAndRouting) {
  MotInterconnect icn = make(PowerState::full());
  EXPECT_EQ(icn.route(0), 0u);
  EXPECT_EQ(icn.state_timing().l2_round_trip(), 12u);
  icn.configure(PowerState::pc16_mb8());
  EXPECT_EQ(icn.route(0), 12u);
  EXPECT_EQ(icn.state_timing().l2_round_trip(), 9u);
}

}  // namespace
}  // namespace mot3d::core
