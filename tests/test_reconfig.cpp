// Unit tests for the power-state reconfiguration protocol: dirty lines of
// gated banks must be written back to DRAM, the switch fabric reprogrammed,
// the L2 mask updated, and the transition's cost reported.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <utility>

#include "cacti/sram_model.hpp"
#include "core/mot_interconnect.hpp"
#include "core/reconfig.hpp"
#include "dram3d/stacked_dram.hpp"
#include "mem/dram.hpp"
#include "mem/l2_system.hpp"
#include "memory_test_doubles.hpp"

namespace mot3d::core {
namespace {

/// A Full-state MoT and a 32-bank L2 over `backend`, reconfigured through
/// core::reconfigure.
struct ReconfigRig {
  static mem::DramConfig dram_cfg() {
    mem::DramConfig c;
    c.access_latency_ns = 200.0;
    return c;
  }

  explicit ReconfigRig(std::unique_ptr<mem::MemoryBackend> backend =
                           std::make_unique<mem::DramBackend>(dram_cfg(), 32))
      : model(tech, fp, bank_cfg),
        icn(model, PowerState::full()),
        backend_(std::move(backend)),
        dram(*backend_),
        l2(l2_cfg(), dram) {
    dram.set_read_sink(&l2);
    l2.set_transport(&transport);
  }
  static mem::L2Config l2_cfg() {
    mem::L2Config c;
    c.total_banks = 32;
    c.bank_capacity_bytes = 64 * 1024;
    return c;
  }

  /// Transition the rig to `next` at `at` (no coherence directory).
  ReconfigCost apply(const PowerState& next, Cycle at) {
    return reconfigure(icn, l2, dram, nullptr, next, at);
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
  std::unique_ptr<mem::MemoryBackend> backend_;
  mem::MemoryBackend& dram;
  mem::L2System l2;
  FakeTransport transport;
  Cycle now = 0;
};

class ReconfigTest : public ::testing::Test, protected ReconfigRig {};

TEST_F(ReconfigTest, FlushWritesBackExactlyDirtyLines) {
  dirty_lines(0, 3);   // bank 0 will be gated by PC16-MB8
  dirty_lines(15, 2);  // bank 15 survives (centre group 12..19)
  const std::uint64_t writes_before = dram.stats().writes;

  const ReconfigCost cost = apply(PowerState::pc16_mb8(), now);
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
  apply(PowerState::pc4_mb8(), 0);
  EXPECT_EQ(l2.num_active_banks(), 8u);
  EXPECT_EQ(icn.state().name(), "PC4-MB8");
  EXPECT_EQ(icn.state_timing().l2_round_trip(), 7u);
  EXPECT_FALSE(l2.active_banks()[0]);
  EXPECT_TRUE(l2.active_banks()[16]);
}

TEST(ReconfigFlushCost, IsDirtyLinesTimesPerLineOccupancyOnBothBackends) {
  // The constant-latency backend: a line holds the Miss bus and the
  // channel, and the longer of the two sets the pace.
  mem::DramConfig channel_bound = ReconfigRig::dram_cfg();
  channel_bound.bus_transfer_cycles = 3;
  channel_bound.channel_burst_cycles = 5;
  mem::DramConfig bus_bound = ReconfigRig::dram_cfg();
  bus_bound.bus_transfer_cycles = 6;
  bus_bound.channel_burst_cycles = 2;
  // The stacked backend: one TSV link transfer per line.
  dram3d::Dram3dConfig stacked;
  stacked.link_cycles = 7;

  std::pair<std::unique_ptr<mem::MemoryBackend>, Cycle> cases[] = {
      {std::make_unique<mem::DramBackend>(channel_bound, 32), 5},
      {std::make_unique<mem::DramBackend>(bus_bound, 32), 6},
      {std::make_unique<dram3d::StackedDram>(stacked, 32), 7},
  };
  for (auto& [backend, per_line] : cases) {
    ReconfigRig rig(std::move(backend));
    rig.dirty_lines(0, 3);   // both banks lie outside PC16-MB8's
    rig.dirty_lines(31, 2);  // centre group 12..19
    const ReconfigCost cost = rig.apply(PowerState::pc16_mb8(), rig.now);
    EXPECT_EQ(cost.dirty_lines_flushed, 5u) << per_line;
    EXPECT_EQ(cost.flush_cycles, 5 * per_line);
  }
}

TEST_F(ReconfigTest, WakeUpCostsNoFlush) {
  apply(PowerState::pc16_mb8(), 0);
  const ReconfigCost cost = apply(PowerState::full(), 100);
  EXPECT_EQ(cost.dirty_lines_flushed, 0u);  // turning banks ON flushes nothing
  EXPECT_EQ(l2.num_active_banks(), 32u);
  EXPECT_GT(cost.reprogram_cycles, 0u);
}

TEST_F(ReconfigTest, RoundTripPreservesOperation) {
  apply(PowerState::pc4_mb8(), 0);
  apply(PowerState::full(), 50);
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
      apply(from, now);
      now += 100;
      const ReconfigCost cost = apply(to, now);
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
    apply(s, now);
    now += 100;
    apply(PowerState::full(), now);
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
  // Each state from Full, on a fresh rig whose bank 0 (outside every gated
  // centre group) holds 3 dirty lines.  PC4-MB32 keeps all 32 banks —
  // gating cores must not flush any cache; both 8-bank states gate bank 0,
  // so its dirty lines must go back to DRAM.
  const std::pair<PowerState, std::uint64_t> flushes[] = {
      {PowerState::pc4_mb32(), 0},
      {PowerState::pc16_mb8(), 3},
      {PowerState::pc4_mb8(), 3},
  };
  for (const auto& [state, flushed] : flushes) {
    ReconfigRig fresh;
    fresh.dirty_lines(0, 3);
    EXPECT_EQ(fresh.apply(state, fresh.now).dirty_lines_flushed, flushed)
        << state.name();
  }

  dirty_lines(0, 3);

  // After actually gating, survivors in the centre group keep their data
  // and a same-mask transition (PC16-MB8 -> PC4-MB8) flushes nothing.
  dirty_lines(15, 2);  // centre group 12..19 survives both 8-bank states
  apply(PowerState::pc16_mb8(), now);
  now += 2000;
  EXPECT_EQ(l2.dirty_lines(15), 2u);
  const ReconfigCost cost = apply(PowerState::pc4_mb8(), now);
  EXPECT_EQ(cost.dirty_lines_flushed, 0u);
  EXPECT_EQ(l2.dirty_lines(15), 2u);
}

// ---- zero-active-bank gating must be rejected loudly -----------------------
//
// The fault-degradation path can request arbitrary gating masks; a state
// with no powered bank would brick the cluster mid-run.  Every layer that
// could produce one throws a clear std::invalid_argument instead of
// tripping asserts downstream: the PowerState constructor (0 is not a
// power of two), the L2 mask setter, and core::reconfigure's guard.

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
  apply(PowerState::pc16_mb8(), now);
  now += 2000;
  apply(PowerState::full(), now);
  now += 2000;
  // Waking banks up neither flushes nor invalidates the survivors.
  EXPECT_EQ(l2.dirty_lines(15), 4u);
  EXPECT_EQ(l2.num_active_banks(), 32u);
}

}  // namespace
}  // namespace mot3d::core
