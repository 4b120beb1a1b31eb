// Off-cluster DRAM backend: the round-robin Miss bus plus a single DRAM
// controller (Table I: one controller, 2 Gb, 4 KB page).
//
// Three latency presets from the paper:
//   * 200 ns — off-chip 2-D DDR3 SDRAM [18]
//   *  63 ns — on-chip 3-D Wide I/O SDR DRAM, JEDEC JESD229 [17]
//   *  42 ns — on-chip 3-D DRAM after Weis et al. [16]
//
// Requesters (the 32 L2 banks and, for instruction-miss line refills, the
// 16 cores — the paper's "Miss bus handles line refills in a round-robin
// manner") contend for the bus; the controller serialises bursts on one
// channel.  An optional open-page model refines the fixed latency.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/index_set.hpp"
#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "mem/memory_backend.hpp"

namespace mot3d::mem {

/// DRAM latency presets used across the paper's figures.
enum class DramPreset : std::uint8_t {
  kDdr3_200ns,    ///< off-chip 2-D DRAM [18]
  kWideIo_63ns,   ///< JEDEC Wide I/O [17]
  kWeis3d_42ns,   ///< Weis 3-D DRAM [16]
};

double dram_latency_ns(DramPreset preset);
const char* dram_preset_name(DramPreset preset);

/// Miss bus + controller, cycle-driven.
///
/// Requesters enqueue (requester id, address, read/write) and — for reads —
/// the read sink hears back when the line has been fetched.  Writes (dirty
/// write-backs) are posted: they consume bus and channel bandwidth but
/// complete silently.
class DramBackend final : public MemoryBackend {
 public:
  DramBackend(const DramConfig& cfg, std::size_t num_requesters);

  /// Advance one cycle: fire completions due at `now`, then run bus
  /// arbitration and start a channel burst.
  void tick(Cycle now) override;

  Cycle next_event(Cycle now) const override;

  /// The line holds the Miss bus and the channel; the longer sets the pace.
  Cycle flush_line_cycles() const override {
    return std::max<Cycle>(cfg_.bus_transfer_cycles, cfg_.channel_burst_cycles);
  }

 private:
  void enqueue(const Txn& txn) override;

  /// Latency for one access honouring the page policy.
  Cycle access_latency_cycles(Addr addr);

  /// The first waiting requester in [from, end) whose head is due by
  /// `now`, or IndexSet::npos.
  std::size_t next_ready(std::size_t from, std::size_t end, Cycle now) const;

  DramConfig cfg_;
  std::vector<RingBuffer<Txn>> queues_;  ///< one per requester (Miss bus RR)
  /// Requesters with a non-empty queue: arbitration and next_event() walk
  /// these, not all banks + cores.
  IndexSet waiting_;
  std::size_t rr_next_ = 0;
  Cycle bus_free_at_ = 0;
  Cycle channel_free_at_ = 0;
  Addr open_page_ = kNoOpenPage;
};

}  // namespace mot3d::mem
