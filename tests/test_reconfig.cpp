// Unit tests for the power-state reconfiguration protocol: dirty lines of
// gated banks must be written back to DRAM, the switch fabric reprogrammed,
// the L2 mask updated, and cost estimates consistent.
#include <gtest/gtest.h>

#include <stdexcept>

#include "cacti/sram_model.hpp"
#include "core/mot_interconnect.hpp"
#include "core/reconfig.hpp"
#include "mem/dram.hpp"
#include "mem/l2_system.hpp"
#include "memory_test_doubles.hpp"

namespace mot3d::core {
namespace {

class ReconfigTest : public ::testing::Test {
 protected:
  ReconfigTest()
      : model(tech, fp, bank_cfg),
        icn(model, PowerState::full()),
        dram(dram_cfg(), 32),
        l2(l2_cfg(), dram),
        mgr(icn, l2, dram) {
    dram.set_read_sink(&l2);
    l2.set_transport(&transport);
  }

  static mem::DramConfig dram_cfg() {
    mem::DramConfig c;
    c.access_latency_ns = 200.0;
    return c;
  }
  static mem::L2Config l2_cfg() {
    mem::L2Config c;
    c.total_banks = 32;
    c.bank_capacity_bytes = 64 * 1024;
    return c;
  }

  /// Warm bank `b` with `n` dirty lines via direct delivery + DRAM drain.
  void dirty_lines(BankId b, int n) {
    for (int i = 0; i < n; ++i) {
      // Bank-local lines: stride = 32 banks * 32 B.
      const Addr addr = static_cast<Addr>(b) * 32 + static_cast<Addr>(i) * 1024;
      l2.deliver(MemRequest{.id = static_cast<std::uint64_t>(i),
                            .core = 0,
                            .bank = b,
                            .addr = addr,
                            .is_write = true,
                            .issue_cycle = 0},
                 now);
      for (int t = 0; t < 400; ++t) {
        l2.tick(now);
        dram.tick(now);
        ++now;
      }
    }
  }

  phys::TechnologyParams tech = phys::default_technology();
  phys::FloorplanParams fp;
  cacti::SramBankConfig bank_cfg;
  MotTimingModel model;
  MotInterconnect icn;
  mem::DramBackend dram;
  mem::L2System l2;
  FakeTransport transport;
  ReconfigManager mgr;
  Cycle now = 0;
};

TEST_F(ReconfigTest, FlushWritesBackExactlyDirtyLines) {
  dirty_lines(0, 3);   // bank 0 will be gated by PC16-MB8
  dirty_lines(15, 2);  // bank 15 survives (centre group 12..19)
  const std::uint64_t writes_before = dram.stats().writes;

  const ReconfigCost cost = mgr.apply(PowerState::pc16_mb8(), now);
  EXPECT_EQ(cost.dirty_lines_flushed, 3u);
  EXPECT_GT(cost.flush_cycles, 0u);
  EXPECT_GT(cost.flush_energy_pj, 0.0);

  for (int t = 0; t < 2000; ++t) {
    dram.tick(now);
    ++now;
  }
  EXPECT_EQ(dram.stats().writes - writes_before, 3u);
  // Survivor bank keeps its dirty lines.
  EXPECT_EQ(l2.dirty_lines(15), 2u);
  EXPECT_EQ(l2.dirty_lines(0), 0u);
}

TEST_F(ReconfigTest, AppliesMasksAndTiming) {
  mgr.apply(PowerState::pc4_mb8(), 0);
  EXPECT_EQ(l2.num_active_banks(), 8u);
  EXPECT_EQ(icn.state().name(), "PC4-MB8");
  EXPECT_EQ(icn.state_timing().l2_round_trip(), 7u);
  EXPECT_FALSE(l2.active_banks()[0]);
  EXPECT_TRUE(l2.active_banks()[16]);
}

TEST_F(ReconfigTest, EstimateDoesNotMutate) {
  dirty_lines(0, 4);
  const ReconfigCost est = mgr.estimate(PowerState::pc16_mb8());
  EXPECT_EQ(est.dirty_lines_flushed, 4u);
  // Nothing actually flushed or reconfigured.
  EXPECT_EQ(l2.dirty_lines(0), 4u);
  EXPECT_EQ(icn.state().name(), "Full");
  EXPECT_EQ(l2.num_active_banks(), 32u);
}

TEST_F(ReconfigTest, WakeUpCostsNoFlush) {
  mgr.apply(PowerState::pc16_mb8(), 0);
  const ReconfigCost cost = mgr.apply(PowerState::full(), 100);
  EXPECT_EQ(cost.dirty_lines_flushed, 0u);  // turning banks ON flushes nothing
  EXPECT_EQ(l2.num_active_banks(), 32u);
  EXPECT_GT(cost.reprogram_cycles, 0u);
}

TEST_F(ReconfigTest, RoundTripPreservesOperation) {
  mgr.apply(PowerState::pc4_mb8(), 0);
  mgr.apply(PowerState::full(), 50);
  EXPECT_EQ(icn.route(0), 0u);  // conventional routing restored
  EXPECT_EQ(icn.state_timing().l2_round_trip(), 12u);
}

// ---- power-state transition round-trips ------------------------------------

/// Table I latency of each paper state, by name.
unsigned expected_round_trip(const std::string& state) {
  if (state == "Full") return 12;
  if (state == "PC4-MB8") return 7;
  return 9;  // PC16-MB8 and PC4-MB32
}

TEST_F(ReconfigTest, EveryOrderedStatePairKeepsMasksAndTimingConsistent) {
  const auto& states = PowerState::paper_states();
  for (const PowerState& from : states) {
    for (const PowerState& to : states) {
      mgr.apply(from, now);
      now += 100;
      const ReconfigCost cost = mgr.apply(to, now);
      now += 100;

      // The fabric and the L2 must agree on the new state after EVERY
      // transition, regardless of history.
      EXPECT_EQ(icn.state().name(), to.name()) << from.name() << " -> " << to.name();
      EXPECT_EQ(l2.num_active_banks(), to.active_banks())
          << from.name() << " -> " << to.name();
      EXPECT_EQ(icn.state_timing().l2_round_trip(), expected_round_trip(to.name()))
          << from.name() << " -> " << to.name();
      const std::vector<bool> mask = to.bank_mask();
      for (BankId b = 0; b < 32; ++b) {
        EXPECT_EQ(l2.active_banks()[b], mask[b])
            << from.name() << " -> " << to.name() << " bank " << b;
      }
      // Nothing was dirty, so no transition may write anything back.
      EXPECT_EQ(cost.dirty_lines_flushed, 0u)
          << from.name() << " -> " << to.name();
    }
  }
}

TEST_F(ReconfigTest, RoundTripThroughEveryStateRestoresFullExactly) {
  for (const PowerState& s : PowerState::paper_states()) {
    mgr.apply(s, now);
    now += 100;
    mgr.apply(PowerState::full(), now);
    now += 100;
    EXPECT_EQ(icn.state().name(), "Full") << "via " << s.name();
    EXPECT_EQ(l2.num_active_banks(), 32u) << "via " << s.name();
    EXPECT_EQ(icn.state_timing().l2_round_trip(), 12u) << "via " << s.name();
    // Conventional (identity) routing restored on every tree.
    for (BankId b : {0u, 7u, 15u, 31u}) {
      EXPECT_EQ(icn.route(b), b) << "via " << s.name();
    }
  }
}

TEST_F(ReconfigTest, FlushHappensOnlyWhenDirtyBanksTurnOff) {
  dirty_lines(0, 3);  // bank 0: outside every gated centre group
  // PC4-MB32 keeps all 32 banks — gating cores must not flush any cache.
  EXPECT_EQ(mgr.estimate(PowerState::pc4_mb32()).dirty_lines_flushed, 0u);
  // Both 8-bank states gate bank 0 — its dirty lines must go back to DRAM.
  EXPECT_EQ(mgr.estimate(PowerState::pc16_mb8()).dirty_lines_flushed, 3u);
  EXPECT_EQ(mgr.estimate(PowerState::pc4_mb8()).dirty_lines_flushed, 3u);

  // After actually gating, survivors in the centre group keep their data
  // and a same-mask transition (PC16-MB8 -> PC4-MB8) flushes nothing.
  dirty_lines(15, 2);  // centre group 12..19 survives both 8-bank states
  mgr.apply(PowerState::pc16_mb8(), now);
  now += 2000;
  EXPECT_EQ(l2.dirty_lines(15), 2u);
  const ReconfigCost cost = mgr.apply(PowerState::pc4_mb8(), now);
  EXPECT_EQ(cost.dirty_lines_flushed, 0u);
  EXPECT_EQ(l2.dirty_lines(15), 2u);
}

// ---- zero-active-bank gating must be rejected loudly -----------------------
//
// The fault-degradation path can request arbitrary gating masks; a state
// with no powered bank would brick the cluster mid-run.  Every layer that
// could produce one throws a clear std::invalid_argument instead of
// tripping asserts downstream: the PowerState constructor (0 is not a
// power of two), the L2 mask setter, and ReconfigManager::apply's guard.

TEST_F(ReconfigTest, ZeroBankPowerStateCannotBeConstructed) {
  EXPECT_THROW(PowerState("dead", 16, 16, 32, 0), std::invalid_argument);
  EXPECT_THROW(PowerState("dead", 16, 0, 32, 8), std::invalid_argument);
}

TEST_F(ReconfigTest, AllOffBankMaskIsRejectedWithClearError) {
  const std::vector<bool> all_off(32, false);
  try {
    l2.set_active_banks(all_off);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("zero active"), std::string::npos)
        << e.what();
  }
  // The rejected request must not have clobbered the live mask.
  EXPECT_EQ(l2.num_active_banks(), 32u);
  EXPECT_THROW(l2.set_active_banks(std::vector<bool>(16, true)),
               std::invalid_argument);  // size mismatch is also an error
}

TEST_F(ReconfigTest, DirtySurvivorsPersistAcrossFullRoundTrip) {
  dirty_lines(15, 4);  // centre bank: survives PC16-MB8
  mgr.apply(PowerState::pc16_mb8(), now);
  now += 2000;
  mgr.apply(PowerState::full(), now);
  now += 2000;
  // Waking banks up neither flushes nor invalidates the survivors.
  EXPECT_EQ(l2.dirty_lines(15), 4u);
  EXPECT_EQ(l2.num_active_banks(), 32u);
}

}  // namespace
}  // namespace mot3d::core
