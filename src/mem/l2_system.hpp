// Multi-banked shared L2 cache stacked over the core tier (paper Fig. 1).
//
// 32 SRAM banks of 64 KB on two stacked tiers (Table I), line-interleaved:
// the logical bank index is the low log2(banks) bits of the line address.
// Each bank is an independent Cache (tags store full line identity, so
// lines that alias after power-gating remap coexist) with its own input
// queue, busy/occupancy model and DRAM miss handling through the shared
// round-robin Miss bus.
//
// The L2System is interconnect-agnostic: requests arrive via deliver()
// already carrying the *physical* bank id (the MoT routing switches, or
// their simulated equivalent, perform the logical->physical remap), and
// responses leave through the transport's try_inject_response(), which may
// exert back-pressure.  Bank b is DRAM requester b; each bank keeps its
// outstanding misses and matches a refill to one by request id (the read's
// tag), never by address.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "coherence/directory.hpp"
#include "common/index_set.hpp"
#include "common/messages.hpp"
#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "mem/cache.hpp"
#include "mem/memory_backend.hpp"

namespace mot3d {
class Interconnect;
}

namespace mot3d::obs {
class TraceBuffer;
}  // namespace mot3d::obs

namespace mot3d::mem {

struct L2Config {
  std::size_t total_banks = 32;       ///< physical banks present on the stack
  std::size_t line_bytes = 32;
  std::size_t bank_capacity_bytes = 64 * 1024;
  std::size_t associativity = 8;
  unsigned access_cycles = 3;         ///< array access incl. bank interface
  unsigned service_cycles = 2;        ///< bank occupancy between accesses
  double read_energy_pj = 40.0;       ///< from the CACTI-lite model
  double write_energy_pj = 44.0;
  double leakage_mw_per_bank = 1.3;
};

struct L2Stats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;       ///< dirty evictions pushed to DRAM
  std::uint64_t bank_conflict_cycles = 0;  ///< cycles requests waited on busy banks
  double dynamic_energy_pj = 0.0;

  std::uint64_t accesses() const { return hits + misses; }
  double hit_rate() const {
    const auto a = accesses();
    return a == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(a);
  }
};

/// The stacked L2: banks + miss path.  Cycle-driven via tick().
class L2System final : public ReadSink {
 public:
  /// Bank b issues its line refills as DRAM requester b.
  L2System(const L2Config& cfg, MemoryBackend& dram);

  /// Responses leave through `t->try_inject_response()`; set before the
  /// first response is due.
  void set_transport(Interconnect* t) { transport_ = t; }

  /// Engage directory-based coherence: each bank consults its co-located
  /// directory slice before serving a request, and requests that hit
  /// remote L1 state stall at the bank head until every invalidation is
  /// acknowledged.  Null (the default) keeps the exact pre-coherence
  /// behaviour, bit for bit.
  void attach_directory(coherence::CoherenceDirectory* dir) { dir_ = dir; }
  coherence::CoherenceDirectory* directory() const { return dir_; }

  /// Interconnect delivers a request whose `bank` is the physical bank.
  void deliver(const MemRequest& req, Cycle now);

  /// The refill of bank `bank`'s miss on request id `tag` is back from
  /// DRAM: install the line (writing back a dirty victim) and answer.
  void on_read_done(std::uint32_t bank, std::uint64_t tag, Addr addr,
                    Cycle now) override;

  /// Advance one cycle: start bank accesses, retire completed ones, push
  /// ready responses into the interconnect.
  void tick(Cycle now);

  /// All queues empty and no access or miss in flight.
  bool idle() const;

  /// Next-event contract (see DESIGN.md): earliest cycle >= `now` at which
  /// tick() could start a bank access or release a response.  Misses in
  /// flight carry no event of their own — the DRAM completion that ends
  /// them is the DRAM backend's event.
  Cycle next_event(Cycle now) const;

  /// Which banks are powered (affects leakage accounting and asserts that
  /// no request reaches a gated bank).  Does not move data — use flush().
  /// Throws std::invalid_argument if `active` would leave every bank off —
  /// a request the fault-degradation path can generate and must surface as
  /// a clear error rather than a downstream assert.
  void set_active_banks(const std::vector<bool>& active);
  const std::vector<bool>& active_banks() const { return active_; }
  std::size_t num_active_banks() const;

  /// Drop every line in bank `b`, returning dirty line addresses that the
  /// caller must write back before gating the bank.
  std::vector<Addr> flush_bank(BankId b);

  /// Dirty-line count of a bank (reconfiguration cost estimation).
  std::size_t dirty_lines(BankId b) const;

  /// Valid lines currently resident across all banks — the observable
  /// working-set footprint a power-state policy reasons about.
  std::size_t resident_lines() const;

  const L2Stats& stats() const { return stats_; }
  const L2Config& config() const { return cfg_; }
  const CacheStats& bank_cache_stats(BankId b) const { return banks_.at(b).cache.stats(); }

  /// Observability: bank events ("l2_miss", "inv_send") are stamped on
  /// track `bank_track_base + physical_bank`.  Null = off (one untaken
  /// branch per miss / invalidation batch).
  void set_trace(obs::TraceBuffer* trace, std::uint32_t bank_track_base) {
    trace_ = trace;
    trace_bank_base_ = bank_track_base;
  }

  /// Parked-state snapshot of one bank for watchdog / deadlock dumps.
  struct BankDebug {
    std::size_t in_queue = 0;
    std::size_t out_queue = 0;
    std::size_t misses = 0;
    bool coh_stalled = false;       ///< transaction parked on invalidations
    unsigned coh_acks_remaining = 0;
  };
  BankDebug bank_debug(BankId b) const;

  /// Leakage power of the currently-powered banks, mW.
  double leakage_mw() const {
    return static_cast<double>(num_active_banks()) * cfg_.leakage_mw_per_bank;
  }

 private:
  struct PendingAccess {
    MemRequest req;
    Cycle arrived = 0;
  };
  struct ReadyResponse {
    MemResponse resp;
    Cycle due = 0;  ///< earliest cycle it may leave the bank
  };
  /// A transaction stalled at the bank head waiting for invalidation
  /// acknowledgements (head-of-line blocking: the directory slice
  /// serialises transactions per bank).
  struct CohPending {
    MemRequest req;
    unsigned acks_remaining = 0;
    bool forwarded_dirty = false;  ///< an ack carried the owner's dirty line
    bool upgrade_ack = false;      ///< answer kUpgradeAck instead of data
    bool install_shared = false;   ///< kData grant must install Shared
  };
  /// A miss waiting for its DRAM refill.
  struct Miss {
    MemRequest req;
    bool install_shared = false;  ///< the kData grant must install Shared
  };
  struct Bank {
    explicit Bank(const CacheConfig& cc) : cache(cc) {}
    Cache cache;
    RingBuffer<PendingAccess> in_queue;
    RingBuffer<ReadyResponse> out_queue;
    std::optional<CohPending> coh_pending;
    Cycle busy_until = 0;
    std::vector<Miss> misses;  ///< in issue order; refills may overtake
  };

  /// Queue `req`'s answer on its bank's out-queue, due after the array
  /// access latency.
  void respond(BankId bank_id, const MemRequest& req, Cycle now, RespKind kind,
               bool l2_hit, bool is_write, bool shared);

  /// The array access + response of a request whose coherence actions (if
  /// any) have completed; the legacy non-coherent path calls it with all
  /// flags false and is unchanged.
  void finish_request(BankId bank_id, const MemRequest& req, Cycle now,
                      bool upgrade_ack, bool install_shared,
                      bool forwarded_dirty);

  /// A bank is *live* when tick() or next_event() has anything to look at:
  /// a non-empty out-queue, a runnable (all acks in) coherence stall, or a
  /// queued access with no coherence stall ahead of it.  deliver(), the
  /// final-ack path and respond() raise the bit; tick() clears it once the
  /// bank drains.  tick()/next_event() walk only the live banks and idle()
  /// reads the count, so an idle 512-bank stack costs no bank sweep — the
  /// other half of the 256-core hot-path cost.
  void mark_live(BankId b) { live_.insert(b); }

  L2Config cfg_;
  MemoryBackend& dram_;
  std::vector<Bank> banks_;
  std::vector<bool> active_;
  IndexSet live_;
  std::size_t misses_total_ = 0;   ///< sum of banks' misses.size()
  std::size_t coh_stalls_ = 0;     ///< banks with a parked CohPending
  Interconnect* transport_ = nullptr;
  coherence::CoherenceDirectory* dir_ = nullptr;
  L2Stats stats_;
  obs::TraceBuffer* trace_ = nullptr;  ///< null = observability off
  std::uint32_t trace_bank_base_ = 0;
};

}  // namespace mot3d::mem
