// Unit tests for the banked stacked L2: hit/miss timing, bank conflicts,
// miss refills over the Miss bus, dirty write-backs, flush for
// power-gating, response back-pressure, and the two orderings of the DRAM
// completion path (victim write-back granted in the refill's cycle;
// refills matched by request id, not address).
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "mem/dram.hpp"
#include "mem/l2_system.hpp"
#include "memory_test_doubles.hpp"

namespace mot3d::mem {
namespace {

struct Harness {
  DramConfig dram_cfg;
  L2Config l2_cfg;
  DramBackend dram;
  L2System l2;
  FakeTransport transport;

  explicit Harness(double dram_ns = 200.0, bool open_page = false)
      : dram_cfg(make_dram(dram_ns, open_page)), l2_cfg(make_l2()),
        dram(dram_cfg, 32), l2(l2_cfg, dram) {
    dram.set_read_sink(&l2);
    l2.set_transport(&transport);
  }

  static DramConfig make_dram(double ns, bool open_page) {
    DramConfig c;
    c.access_latency_ns = ns;
    c.open_page_policy = open_page;
    return c;
  }
  static L2Config make_l2() {
    L2Config c;
    c.total_banks = 4;  // small for testability
    c.bank_capacity_bytes = 1024;
    c.associativity = 2;
    c.access_cycles = 3;
    c.service_cycles = 2;
    return c;
  }

  MemRequest req(BankId bank, Addr addr, bool write = false, std::uint64_t id = 1) {
    return MemRequest{.id = id,
                      .core = 0,
                      .bank = bank,
                      .addr = addr,
                      .is_write = write,
                      .issue_cycle = 0};
  }

  void run_until(Cycle end) {
    for (Cycle t = 0; t <= end; ++t) {
      l2.tick(t);
      dram.tick(t);
    }
  }
};

TEST(L2System, MissThenHitTiming) {
  Harness h;
  h.l2.deliver(h.req(0, 0x1000), 0);
  h.run_until(400);
  ASSERT_EQ(h.transport.responses.size(), 1u);
  EXPECT_FALSE(h.transport.responses[0].l2_hit);
  EXPECT_EQ(h.l2.stats().misses, 1u);

  // Same line again: now a hit, served in ~access_cycles.
  h.transport.responses.clear();
  const Cycle start = 500;
  h.l2.deliver(h.req(0, 0x1000, false, 2), start);
  for (Cycle t = start; t <= start + 20; ++t) {
    h.l2.tick(t);
    h.dram.tick(t);
  }
  ASSERT_EQ(h.transport.responses.size(), 1u);
  EXPECT_TRUE(h.transport.responses[0].l2_hit);
  EXPECT_EQ(h.l2.stats().hits, 1u);
}

TEST(L2System, MissLatencyIncludesDram) {
  Harness h200(200.0);
  Harness h42(42.0);
  h200.l2.deliver(h200.req(0, 0x40), 0);
  h42.l2.deliver(h42.req(0, 0x40), 0);
  Cycle done200 = 0, done42 = 0;
  for (Cycle t = 0; t <= 400; ++t) {
    h200.l2.tick(t);
    h200.dram.tick(t);
    if (done200 == 0 && !h200.transport.responses.empty()) done200 = t;
    h42.l2.tick(t);
    h42.dram.tick(t);
    if (done42 == 0 && !h42.transport.responses.empty()) done42 = t;
  }
  ASSERT_GT(done200, 0u);
  ASSERT_GT(done42, 0u);
  EXPECT_NEAR(static_cast<double>(done200 - done42), 158.0, 5.0);
}

TEST(L2System, BankConflictSerialises) {
  Harness h;
  // Warm two lines of bank 0 (4 banks, 32 B lines: bank = bits 5..6).
  h.l2.deliver(h.req(0, 0x0000, false, 1), 0);
  h.l2.deliver(h.req(0, 0x0400, false, 2), 0);
  h.run_until(500);
  h.transport.responses.clear();

  // Two simultaneous hits on the same bank: second waits service_cycles.
  h.l2.deliver(h.req(0, 0x0000, false, 3), 1000);
  h.l2.deliver(h.req(0, 0x0400, false, 4), 1000);
  for (Cycle t = 1000; t <= 1030; ++t) {
    h.l2.tick(t);
    h.dram.tick(t);
  }
  EXPECT_EQ(h.transport.responses.size(), 2u);
  EXPECT_GT(h.l2.stats().bank_conflict_cycles, 0u);
}

TEST(L2System, DistinctBanksProceedInParallel) {
  Harness h;
  h.l2.deliver(h.req(0, 0x0000, false, 1), 0);
  h.l2.deliver(h.req(1, 0x0020, false, 2), 0);
  h.run_until(400);
  EXPECT_EQ(h.transport.responses.size(), 2u);
  EXPECT_EQ(h.l2.stats().bank_conflict_cycles, 0u);
}

TEST(L2System, WriteMarksLineDirtyAndFlushFindsIt) {
  Harness h;
  h.l2.deliver(h.req(0, 0x0000, true, 1), 0);  // write miss: allocate dirty
  h.run_until(400);
  EXPECT_EQ(h.l2.dirty_lines(0), 1u);
  const std::vector<Addr> dirty = h.l2.flush_bank(0);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], 0x0000u);
  EXPECT_EQ(h.l2.dirty_lines(0), 0u);
}

TEST(L2System, CapacityEvictionWritesBackDirtyLines) {
  Harness h;
  // Bank 0, one set has 2 ways; three dirty lines in the same set force a
  // dirty eviction to DRAM.  Bank-local set stride: 4 banks * 32 B = 128 B,
  // 16 sets per bank -> same set every 2048 B.
  h.l2.deliver(h.req(0, 0x0000, true, 1), 0);
  h.run_until(400);
  h.l2.deliver(h.req(0, 0x0800, true, 2), 500);
  h.run_until(900);
  h.l2.deliver(h.req(0, 0x1000, true, 3), 1000);
  h.run_until(1500);
  EXPECT_EQ(h.l2.stats().writebacks, 1u);
  EXPECT_GE(h.dram.stats().writes, 1u);
}

TEST(L2System, DirtyVictimOfARefillIsGrantedThatCycle) {
  // Two dirty lines fill both ways of set 0 in bank 0; a read of a third
  // line in that set misses, and its refill (due at 1205) evicts a dirty
  // victim.  The write-back is posted from inside the DRAM completion, and
  // that same tick's Miss-bus arbitration must grant it — completions fire
  // before arbitration, not after.
  Harness h;
  h.l2.deliver(h.req(0, 0x0000, true, 1), 0);
  h.run_until(400);
  h.l2.deliver(h.req(0, 0x0800, true, 2), 500);
  h.run_until(900);
  ASSERT_EQ(h.dram.stats().writes, 0u);
  h.l2.deliver(h.req(0, 0x1000, false, 3), 1000);
  Cycle granted = kNeverCycle;
  for (Cycle t = 1000; t <= 1400 && granted == kNeverCycle; ++t) {
    h.l2.tick(t);
    h.dram.tick(t);
    if (h.dram.stats().writes > 0) granted = t;
  }
  EXPECT_EQ(h.l2.stats().writebacks, 1u);
  EXPECT_EQ(granted, 1205u);
}

TEST(L2System, SameLineMissesPairByRequestNotAddress) {
  // Two cores miss on line 0x0 of bank 0 in the same cycle.  Under the
  // open-page policy the second refill is a row hit and overtakes the
  // first, so each refill must answer the request it was issued for:
  // id 11 at cycle 140, then id 10 at cycle 208.
  Harness h(200.0, /*open_page=*/true);
  MemRequest first = h.req(0, 0x0, false, 10);
  MemRequest second = h.req(0, 0x0, false, 11);
  second.core = 1;
  h.l2.deliver(first, 0);
  h.l2.deliver(second, 0);
  h.run_until(400);
  ASSERT_EQ(h.transport.responses.size(), 2u);
  EXPECT_EQ(h.transport.responses[0].id, 11u);
  EXPECT_EQ(h.transport.responses[0].core, 1u);
  EXPECT_EQ(h.transport.answered_at[0], 140u);
  EXPECT_EQ(h.transport.responses[1].id, 10u);
  EXPECT_EQ(h.transport.responses[1].core, 0u);
  EXPECT_EQ(h.transport.answered_at[1], 208u);
  EXPECT_EQ(h.dram.stats().page_hits, 1u);
}

TEST(L2System, ResponseBackpressureRetries) {
  Harness h;
  h.transport.block = true;
  h.l2.deliver(h.req(0, 0x0000), 0);
  h.run_until(300);
  EXPECT_TRUE(h.transport.responses.empty());
  EXPECT_FALSE(h.l2.idle());  // response stuck in the bank's out-queue
  h.transport.block = false;
  h.run_until(310);
  EXPECT_EQ(h.transport.responses.size(), 1u);
  EXPECT_TRUE(h.l2.idle());
}

TEST(L2System, ActiveMaskAccounting) {
  Harness h;
  EXPECT_EQ(h.l2.num_active_banks(), 4u);
  h.l2.set_active_banks({true, false, true, false});
  EXPECT_EQ(h.l2.num_active_banks(), 2u);
  EXPECT_NEAR(h.l2.leakage_mw(), 2.0 * h.l2_cfg.leakage_mw_per_bank, 1e-9);
  EXPECT_THROW(h.l2.set_active_banks({true}), std::invalid_argument);
}

TEST(L2System, EnergyAccumulates) {
  Harness h;
  h.l2.deliver(h.req(0, 0x0000), 0);
  h.run_until(400);
  EXPECT_GT(h.l2.stats().dynamic_energy_pj, 0.0);
}

TEST(L2System, HitRateStatistics) {
  Harness h;
  h.l2.deliver(h.req(0, 0x0000, false, 1), 0);
  h.run_until(400);
  h.l2.deliver(h.req(0, 0x0000, false, 2), 500);
  h.l2.deliver(h.req(0, 0x0000, false, 3), 520);
  h.run_until(600);
  EXPECT_EQ(h.l2.stats().accesses(), 3u);
  EXPECT_NEAR(h.l2.stats().hit_rate(), 2.0 / 3.0, 1e-9);
}

TEST(L2System, RejectsNonPow2Banks) {
  DramConfig dc;
  DramBackend dram(dc, 4);
  L2Config lc;
  lc.total_banks = 3;
  EXPECT_THROW(L2System(lc, dram), std::invalid_argument);
}

}  // namespace
}  // namespace mot3d::mem
