// Unit tests for the trace-driven in-order core: exact cycle accounting on
// scripted traces, L1 hit/miss behaviour, blocking L2 transactions, dirty
// write-back sequencing, instruction-miss refills and barrier spinning.
#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <vector>

#include "cpu/barrier.hpp"
#include "cpu/core.hpp"
#include "cpu/trace.hpp"

namespace mot3d::cpu {
namespace {

class ScriptedTrace final : public TraceSource {
 public:
  explicit ScriptedTrace(std::vector<TraceRecord> records)
      : records_(records.begin(), records.end()) {}
  TraceRecord next() override {
    if (records_.empty()) return TraceRecord::end();
    TraceRecord r = records_.front();
    records_.pop_front();
    return r;
  }

 private:
  std::deque<TraceRecord> records_;
};

struct Env {
  BarrierController barriers{1};
  std::vector<std::pair<CoreId, Addr>> ifetches;
  ScriptedTrace trace;
  CoreConfig cfg;
  Core core;

  explicit Env(std::vector<TraceRecord> records, std::size_t participants = 1)
      : trace(std::move(records)),
        cfg(),
        core(0, cfg, trace, barriers,
             [this](CoreId c, Addr a, Cycle) { ifetches.emplace_back(c, a); }) {
    barriers.set_participants(participants);
  }

  /// Tick + auto-accept any injection; returns the accepted request if any.
  std::optional<MemRequest> tick(Cycle now) {
    core.tick(now);
    if (core.pending_request().has_value()) {
      MemRequest r = *core.pending_request();
      core.injection_accepted(now);
      return r;
    }
    return std::nullopt;
  }

  void respond(const MemRequest& req, Cycle now, bool hit = true) {
    core.on_response(MemResponse{.id = req.id,
                                 .core = req.core,
                                 .bank = req.bank,
                                 .addr = req.addr,
                                 .is_write = req.is_write,
                                 .l2_hit = hit,
                                 .issue_cycle = req.issue_cycle},
                     now);
  }
};

TEST(Core, ComputeBurstTakesExactCycles) {
  Env env({TraceRecord::compute(5)});
  Cycle t = 0;
  for (; t < 20 && !env.core.done(); ++t) env.tick(t);
  // 5 compute cycles + 1 cycle consuming kEnd.
  EXPECT_EQ(env.core.stats().busy_cycles, 5u);
  EXPECT_EQ(env.core.stats().instructions, 5u);
  EXPECT_TRUE(env.core.done());
  EXPECT_EQ(env.core.stats().finish_cycle, 5u);
}

TEST(Core, L1HitCostsOneCycle) {
  // Two accesses to the same line: miss (refill) then hit.
  Env env({TraceRecord::mem(MemOp::kLoad, 0x100),
           TraceRecord::mem(MemOp::kLoad, 0x104)});
  auto req = env.tick(0);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->addr, 0x100u);  // line aligned
  EXPECT_FALSE(req->is_write);
  env.respond(*req, 10, true);
  env.tick(11);  // second load: L1 hit, 1 busy cycle
  env.tick(12);  // consumes kEnd
  EXPECT_TRUE(env.core.done());
  EXPECT_EQ(env.core.l1d_stats().read_hits, 1u);
  EXPECT_EQ(env.core.l1d_stats().read_misses, 1u);
  EXPECT_EQ(env.core.stats().l2_requests, 1u);
}

TEST(Core, MissStallsUntilResponse) {
  Env env({TraceRecord::mem(MemOp::kLoad, 0x200), TraceRecord::compute(1)});
  auto req = env.tick(0);
  ASSERT_TRUE(req.has_value());
  for (Cycle t = 1; t <= 11; ++t) env.tick(t);  // stalled
  EXPECT_FALSE(env.core.done());
  EXPECT_GE(env.core.stats().stall_cycles, 11u);
  env.respond(*req, 12);
  env.tick(13);  // compute
  env.tick(14);  // end
  EXPECT_TRUE(env.core.done());
}

TEST(Core, StoreMissRefillsThenDirtiesLine) {
  Env env({TraceRecord::mem(MemOp::kStore, 0x300)});
  auto req = env.tick(0);
  ASSERT_TRUE(req.has_value());
  EXPECT_FALSE(req->is_write);  // refill fetch, write-allocate
  env.respond(*req, 5);
  env.tick(6);
  EXPECT_TRUE(env.core.done());
  EXPECT_EQ(env.core.l1d_stats().write_misses, 1u);
}

TEST(Core, DirtyVictimWritesBackBeforeContinuing) {
  // Fill one L1 set (4 ways; 4 KB/32 B/4 = 32 sets, so same set every
  // 1024 B) with stores, then evict: the victim must go out as a write.
  std::vector<TraceRecord> recs;
  for (int i = 0; i < 5; ++i) {
    recs.push_back(TraceRecord::mem(MemOp::kStore, 0x400ull * i * 1 + 0x0));
  }
  // Set stride for the default 4 KB 4-way L1: 32 sets * 32 B = 1024 B.
  recs.clear();
  for (int i = 0; i < 5; ++i) {
    recs.push_back(TraceRecord::mem(MemOp::kStore, 0x400ull * i));
  }
  Env env(std::move(recs));
  Cycle t = 0;
  int writebacks = 0;
  std::optional<MemRequest> pending;
  while (!env.core.done() && t < 500) {
    pending = env.tick(t);
    if (pending.has_value()) {
      if (pending->is_write) ++writebacks;
      env.respond(*pending, t + 3);
      t += 3;
    }
    ++t;
  }
  EXPECT_TRUE(env.core.done());
  // 5 store misses fill 4 ways; the 5th evicts a dirty victim.
  EXPECT_EQ(writebacks, 1);
  EXPECT_EQ(env.core.stats().l1_writebacks, 1u);
  EXPECT_EQ(env.core.stats().l2_requests, 6u);  // 5 refills + 1 write-back
}

TEST(Core, IFetchMissGoesToMissBusNotL2) {
  Env env({TraceRecord::mem(MemOp::kInstrFetch, 0x10000),
           TraceRecord::compute(1)});
  env.tick(0);
  ASSERT_EQ(env.ifetches.size(), 1u);
  EXPECT_EQ(env.ifetches[0].second, 0x10000u);
  EXPECT_FALSE(env.core.pending_request().has_value());  // no L2 traffic
  env.tick(1);
  env.core.on_ifetch_refill(0x10000, 2);
  env.tick(3);  // compute
  env.tick(4);
  EXPECT_TRUE(env.core.done());
  EXPECT_EQ(env.core.stats().ifetch_misses, 1u);
}

TEST(Core, IFetchHitIsFree) {
  Env env({TraceRecord::mem(MemOp::kInstrFetch, 0x10000),
           TraceRecord::mem(MemOp::kInstrFetch, 0x10004),
           TraceRecord::compute(2)});
  env.tick(0);  // miss
  env.core.on_ifetch_refill(0x10000, 1);
  // Next tick: the I-hit chains straight into the compute burst.
  env.tick(2);
  EXPECT_EQ(env.core.stats().busy_cycles, 1u);
  env.tick(3);
  env.tick(4);
  EXPECT_TRUE(env.core.done());
  EXPECT_EQ(env.core.l1i_stats().read_hits, 1u);
}

TEST(Core, BarrierSpinsUntilReleased) {
  BarrierController barriers(2);
  ScriptedTrace t0({TraceRecord::barrier(0), TraceRecord::compute(1)});
  CoreConfig cfg;
  Core core(0, cfg, t0, barriers, [](CoreId, Addr, Cycle) {});
  core.tick(0);  // arrives at barrier (1 busy cycle)
  for (Cycle t = 1; t <= 5; ++t) core.tick(t);
  EXPECT_EQ(core.stats().spin_cycles, 5u);
  EXPECT_FALSE(core.done());
  barriers.arrive(0, 5);  // second participant arrives
  core.tick(6);           // released: executes compute
  core.tick(7);
  EXPECT_TRUE(core.done());
  EXPECT_EQ(core.stats().spin_cycles, 5u);
}

TEST(Core, BankHashing) {
  // Consecutive lines hit consecutive logical banks (32-bank interleave).
  std::vector<TraceRecord> recs;
  for (int i = 0; i < 3; ++i) {
    recs.push_back(TraceRecord::mem(MemOp::kLoad, 0x8000'0000ull + 32 * i));
  }
  Env env(std::move(recs));
  std::vector<BankId> banks;
  Cycle t = 0;
  while (!env.core.done() && t < 100) {
    auto req = env.tick(t);
    if (req.has_value()) {
      banks.push_back(req->bank);
      env.respond(*req, t + 2);
      t += 2;
    }
    ++t;
  }
  ASSERT_EQ(banks.size(), 3u);
  EXPECT_EQ(banks[0] + 1, banks[1]);
  EXPECT_EQ(banks[1] + 1, banks[2]);
}

TEST(Core, DoneCoreStaysIdle) {
  Env env({TraceRecord::compute(1)});
  env.tick(0);
  env.tick(1);
  EXPECT_TRUE(env.core.done());
  env.tick(2);
  env.tick(3);
  EXPECT_EQ(env.core.stats().idle_cycles, 3u);  // end-consume + 2 idle ticks
}

TEST(Barrier, ReleaseSemantics) {
  BarrierController b(3);
  b.arrive(0, 1);
  b.arrive(0, 2);
  EXPECT_FALSE(b.released(0));
  b.arrive(0, 4);
  EXPECT_TRUE(b.released(0));
  EXPECT_FALSE(b.released_before(0, 4));
  EXPECT_TRUE(b.released_before(0, 5));
  EXPECT_FALSE(b.released(1));
  EXPECT_EQ(b.arrivals(0), 3u);
  EXPECT_EQ(b.arrivals(7), 0u);
}

}  // namespace
}  // namespace mot3d::cpu
