// Trace-driven in-order processing core (ARM Cortex-A5 class, Table I).
//
// Single-issue, blocking caches, one outstanding L2 transaction — the
// behaviour the paper assumes for its 16-core cluster.  Each core owns
// private L1 I and D caches (4 KB, 32 B line, 4-way LRU, 1-cycle).  Data
// misses travel through the pluggable on-chip interconnect to the stacked
// L2; instruction misses refill directly over the round-robin Miss bus
// from DRAM (paper: "In case of instruction miss, Miss bus handles line
// refills ... towards the off-cluster DRAM").
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "common/messages.hpp"
#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "cpu/barrier.hpp"
#include "cpu/trace.hpp"
#include "mem/cache.hpp"

namespace mot3d::cpu {

struct CoreConfig {
  mem::CacheConfig l1i{.capacity_bytes = 4 * 1024,
                       .line_bytes = 32,
                       .associativity = 4,
                       .index_shift = 0};
  mem::CacheConfig l1d{.capacity_bytes = 4 * 1024,
                       .line_bytes = 32,
                       .associativity = 4,
                       .index_shift = 0};
  std::size_t l2_banks = 32;       ///< logical bank count for bank hashing
};

struct CoreStats {
  std::uint64_t instructions = 0;
  std::uint64_t busy_cycles = 0;   ///< executing compute or L1 hits
  std::uint64_t stall_cycles = 0;  ///< waiting for L2 / DRAM
  std::uint64_t spin_cycles = 0;   ///< busy-waiting at a barrier
  std::uint64_t idle_cycles = 0;   ///< after kEnd
  std::uint64_t l2_requests = 0;   ///< data refills + write-backs injected
  std::uint64_t l1_writebacks = 0; ///< dirty L1 victims pushed to L2
  std::uint64_t ifetch_misses = 0;
  // -- coherence (zero unless a directory is engaged) --
  std::uint64_t invalidations_received = 0;  ///< directory invalidate msgs
  std::uint64_t upgrades = 0;                ///< S->M upgrade requests issued
  std::uint64_t coherence_forwards = 0;      ///< dirty lines forwarded down
  Cycle finish_cycle = 0;          ///< cycle the trace ended (0 if running)
};

/// The core proper.  The cluster drives it: tick() once per cycle, then
/// drain `pending_request()` into the interconnect (with back-pressure),
/// and feed completions back via on_response() / on_ifetch_refill().
class Core {
 public:
  /// Instruction-miss refill issue: (core, line addr, now).
  using IFetchIssue = std::function<void(CoreId, Addr, Cycle)>;

  Core(CoreId id, const CoreConfig& cfg, TraceSource& trace,
       BarrierController& barriers, IFetchIssue ifetch_issue);

  /// Advance one cycle.  Returns true if the tick consumed trace records:
  /// only such a tick can issue a request, arrive at a barrier or end the
  /// trace.  Any other tick only accrues counters or burns compute.
  bool tick(Cycle now);

  /// Next-event contract (see DESIGN.md): earliest cycle >= `now` at which
  /// tick() could do anything beyond the per-cycle stat accrual that skip()
  /// reproduces.  kNeverCycle while blocked on memory, the barrier or after
  /// kEnd — those states only change through external wake-ups.  A request
  /// or coherence acknowledgement waiting for a fabric slot is not a tick
  /// event either: the cluster's injection phase retries it every cycle
  /// (pending_request(), pending_coherence()), and the tick only stalls.
  Cycle next_event(Cycle now) const;

  /// Batch-account the cycles [from, to) exactly as `to - from` dense
  /// tick() calls would, for states where ticks are pure stat accrual
  /// (stall/spin/idle) or a deterministic compute burn-down — every state
  /// but kFetch.  The caller (the cluster scheduler) must guarantee
  /// to <= next_event(from), with one exception: a barrier waiter that
  /// ticks before the releasing core in the cluster's order spins through
  /// the release cycle, so it may be skipped up to the cycle after its
  /// barrier's release.
  void skip(Cycle from, Cycle to);

  /// The L2 request (if any) waiting for an interconnect slot.  The cluster
  /// calls injection_accepted() once the interconnect takes it.
  const std::optional<MemRequest>& pending_request() const { return pending_; }
  void injection_accepted(Cycle now);

  /// Interconnect delivers the L2's answer.
  void on_response(const MemResponse& resp, Cycle now);

  /// Directory orders this core to drop its L1 copy of `inv.addr`.  Legal
  /// in every state (unlike on_response): the L1 snoop port is independent
  /// of the instruction stream.  Queues a kInvAck (clean) or kDataForward
  /// (dirty) acknowledgement for the cluster to inject.
  void on_coherence_invalidate(const MemResponse& inv, Cycle now);

  /// Head of the coherence-acknowledgement queue (nullptr when empty).
  /// The cluster injects these even while cores are clock-held — protocol
  /// control traffic is not on the gated core clock.
  const MemRequest* pending_coherence() const {
    return coh_queue_.empty() ? nullptr : &coh_queue_.front();
  }
  void coherence_accepted(Cycle now);

  /// Miss bus delivers an instruction line.
  void on_ifetch_refill(Addr addr, Cycle now);

  /// Pre-load the instruction cache with [base, base+bytes) before the run
  /// starts.  Scaled-down traces over-weight cold-start I-misses relative
  /// to the paper's full SPLASH-2 runs; warming restores the steady-state
  /// behaviour the paper measures (standard warm-cache methodology).
  void warm_l1i(Addr base, std::size_t bytes);

  bool done() const { return state_ == State::kDone; }
  bool at_barrier() const { return state_ == State::kAtBarrier; }
  /// Human-readable state label for watchdog / deadlock diagnostics.
  const char* state_name() const;
  CoreId id() const { return id_; }
  const CoreStats& stats() const { return stats_; }
  const mem::CacheStats& l1i_stats() const { return l1i_.stats(); }
  const mem::CacheStats& l1d_stats() const { return l1d_.stats(); }

  /// L1 lookups (for the McPAT-lite L1 energy term).
  std::uint64_t l1_accesses() const {
    return l1i_.stats().accesses() + l1d_.stats().accesses();
  }

 private:
  enum class State {
    kFetch,          ///< ready to consume the next trace record
    kCompute,        ///< burning down a compute burst
    kWaitInject,     ///< request built, waiting for interconnect slot
    kWaitMem,        ///< L2 transaction in flight
    kWaitIFetch,     ///< instruction refill in flight
    kAtBarrier,
    kDone,
  };

  void process_next_record(Cycle now);
  void issue_data_miss(Addr addr, bool store_miss, Cycle now);
  void issue_upgrade(Addr addr, Cycle now);

  Addr line_of(Addr a) const {
    return a & ~static_cast<Addr>(cfg_.l1d.line_bytes - 1);
  }
  BankId bank_of(Addr a) const {
    const Addr line = a >> line_shift_;
    return static_cast<BankId>(line & (cfg_.l2_banks - 1));
  }

  CoreId id_;
  CoreConfig cfg_;
  unsigned line_shift_;
  // Pointers (never null) rather than references so Core is movable and
  // the cluster can keep its cores in one contiguous arena.
  TraceSource* trace_;
  BarrierController* barriers_;
  IFetchIssue ifetch_issue_;

  mem::Cache l1i_;
  mem::Cache l1d_;

  State state_ = State::kFetch;
  std::uint32_t compute_remaining_ = 0;
  std::uint32_t barrier_id_ = 0;
  std::optional<MemRequest> pending_;  ///< waiting for injection
  RingBuffer<MemRequest> coh_queue_;   ///< invalidation acks awaiting a slot
  bool refill_is_store_ = false;       ///< write-allocate: dirty on insert
  bool refill_invalidated_ = false;    ///< in-flight line invalidated: demote
                                       ///< the install to Shared
  bool inflight_is_writeback_ = false; ///< current L2 txn is an L1 victim
  Addr refill_addr_ = 0;
  std::uint64_t next_req_seq_ = 0;

  CoreStats stats_;
};

}  // namespace mot3d::cpu
