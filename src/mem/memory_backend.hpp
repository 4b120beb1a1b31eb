// Common interface for the cluster's off-stack memory side.
//
// Two implementations exist:
//   * mem::DramBackend      — the paper's constant-latency Miss-bus model
//                             with three presets (200/63/42 ns), and
//   * dram3d::StackedDram   — the vault-parallel 3-D stacked-DRAM backend
//                             with per-vault FR-FCFS controllers.
//
// Everything above the memory boundary (L2 system, reconfiguration drain,
// cluster scheduling) talks to this interface only.  The contract mirrors
// every other component: tick(now) performs all work due at `now`,
// next_event(now) names the earliest cycle >= now at which tick() could do
// anything, and idle() is the drain predicate.
//
// One completion path: the base class owns the read-completion heap, and
// every read ends in the one ReadSink's on_read_done().  A backend's tick()
// first hands every read due by `now` to the sink (earliest first), and only
// then arbitrates: a write the sink posts — a refill's dirty victim — thus
// competes in the same cycle's grant.  The `tag` rides along untouched; the
// L2 passes the request id, because two misses on one line can complete out
// of order (an open-page row hit overtakes the older miss).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/types.hpp"
#include "obs/latency.hpp"

namespace mot3d::mem {

struct DramConfig {
  double access_latency_ns = 200.0;   ///< request-to-data latency
  unsigned channel_burst_cycles = 2;  ///< 32 B line over a DDR3-1600 channel
  unsigned bus_transfer_cycles = 2;   ///< Miss-bus occupancy per transaction
  std::size_t page_bytes = 4096;      ///< Table I page size
  bool open_page_policy = false;      ///< row-hit shortcut (off: fixed)
  double row_hit_fraction_saved = 0.35;
  double energy_per_access_pj = 8000.0;  ///< tracked, excluded from EDP
};

struct DramStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t page_hits = 0;
  std::uint64_t page_misses = 0;
  std::uint64_t total_wait_cycles = 0;  ///< queueing before service
  double dynamic_energy_pj = 0.0;
};

/// Where every DRAM read ends.
class ReadSink {
 public:
  /// The line `addr` read for `requester` under `tag` is back at the
  /// cluster boundary at `now`.
  virtual void on_read_done(std::uint32_t requester, std::uint64_t tag,
                            Addr addr, Cycle now) = 0;
};

/// Abstract memory backend behind the cluster's miss path.
class MemoryBackend {
 public:
  virtual ~MemoryBackend() = default;

  /// The sink every completed read is handed to; null drops completions.
  void set_read_sink(ReadSink* sink) { sink_ = sink; }

  /// Enqueue a line read for `requester`; the sink's on_read_done() fires
  /// from tick() on the cycle the data is back at the cluster boundary.
  void read(std::uint32_t requester, Addr addr, Cycle now, std::uint64_t tag) {
    enqueue(Txn{requester, /*is_write=*/false, addr, tag, now});
  }

  /// Post a line write-back (no completion).
  void write(std::uint32_t requester, Addr addr, Cycle now) {
    enqueue(Txn{requester, /*is_write=*/true, addr, 0, now});
  }

  /// Advance to `now`: completions due at `now`, then arbitration, burst
  /// starts and refreshes.
  virtual void tick(Cycle now) = 0;

  /// True when no transaction is queued or in flight (used to detect
  /// end-of-run and reconfiguration drain).
  bool idle() const { return pending_count_ == 0 && completions_.empty(); }

  /// Next-event contract (see DESIGN.md): earliest cycle >= `now` at which
  /// tick() could fire a completion, grant a request, or run a refresh.
  virtual Cycle next_event(Cycle now) const = 0;

  const DramStats& stats() const { return stats_; }

  /// Cycles one written-back line occupies the transfer path: the
  /// reconfiguration drain's flush cost per line.
  virtual Cycle flush_line_cycles() const = 0;

  /// Observability: each read grant records its modeled service latency
  /// (enqueue -> data back at the cluster boundary) into `h`.  Computed
  /// from model quantities only, so it is identical in both scheduler
  /// modes; null (the default) costs one untaken branch per grant.
  void set_service_histogram(obs::LatencyHistogram* h) { service_hist_ = h; }

 protected:
  struct Txn {
    std::uint32_t requester = 0;
    bool is_write = false;
    Addr addr = 0;
    std::uint64_t tag = 0;  ///< reads only
    Cycle enqueued = 0;
  };

  /// Queue `txn` for arbitration and count it in pending_count_.
  virtual void enqueue(const Txn& txn) = 0;

  /// Hand every read due by `now` to the sink, earliest first.  Top of
  /// tick(), before arbitration (see the header comment).
  void complete_due(Cycle now) {
    while (!completions_.empty() && completions_.top().due <= now) {
      const Completion c = completions_.top();
      completions_.pop();
      if (sink_ != nullptr) sink_->on_read_done(c.requester, c.tag, c.addr, now);
    }
  }

  /// A read granted now has its data back at `done`: record the service
  /// latency, schedule the completion, and return the latency.
  Cycle schedule_read(const Txn& txn, Cycle done) {
    const Cycle latency = done - txn.enqueued;
    if (service_hist_ != nullptr) service_hist_->record(latency);
    completions_.push(Completion{done, txn.requester, txn.addr, txn.tag});
    return latency;
  }

  /// The earliest completion as an event: max(due, now), or kNeverCycle.
  Cycle next_completion(Cycle now) const {
    return completions_.empty() ? kNeverCycle
                                : std::max(completions_.top().due, now);
  }

  std::size_t pending_count_ = 0;  ///< queued, not yet granted
  DramStats stats_;

 private:
  struct Completion {
    Cycle due;
    std::uint32_t requester;
    Addr addr;
    std::uint64_t tag;
    bool operator>(const Completion& o) const { return due > o.due; }
  };

  std::priority_queue<Completion, std::vector<Completion>, std::greater<>>
      completions_;
  ReadSink* sink_ = nullptr;
  obs::LatencyHistogram* service_hist_ = nullptr;
};

}  // namespace mot3d::mem
