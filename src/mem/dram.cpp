#include "mem/dram.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mot3d::mem {

double dram_latency_ns(DramPreset preset) {
  switch (preset) {
    case DramPreset::kDdr3_200ns: return 200.0;
    case DramPreset::kWideIo_63ns: return 63.0;
    case DramPreset::kWeis3d_42ns: return 42.0;
  }
  return 200.0;
}

const char* dram_preset_name(DramPreset preset) {
  switch (preset) {
    case DramPreset::kDdr3_200ns: return "off-chip DDR3 (200ns)";
    case DramPreset::kWideIo_63ns: return "3-D Wide I/O (63ns)";
    case DramPreset::kWeis3d_42ns: return "3-D DRAM Weis (42ns)";
  }
  return "?";
}

DramBackend::DramBackend(const DramConfig& cfg, std::size_t num_requesters)
    : cfg_(cfg), queues_(num_requesters), waiting_(num_requesters) {
  if (num_requesters == 0) throw std::invalid_argument("need >= 1 requester");
}

void DramBackend::enqueue(const Txn& txn) {
  queues_.at(txn.requester).push_back(txn);
  waiting_.insert(txn.requester);
  ++pending_count_;
}

std::size_t DramBackend::next_ready(std::size_t from, std::size_t end,
                                    Cycle now) const {
  for (std::size_t q = waiting_.next(from); q < end; q = waiting_.next(q + 1)) {
    if (queues_[q].front().enqueued <= now) return q;
  }
  return IndexSet::npos;
}

Cycle DramBackend::access_latency_cycles(Addr addr) {
  double latency = cfg_.access_latency_ns;  // 1 ns == 1 cycle at 1 GHz
  if (cfg_.open_page_policy) {
    const Addr page = addr / cfg_.page_bytes;
    if (page == open_page_) {
      latency *= (1.0 - cfg_.row_hit_fraction_saved);
      ++stats_.page_hits;
    } else {
      ++stats_.page_misses;
    }
    open_page_ = page;
  }
  return static_cast<Cycle>(std::llround(latency));
}

void DramBackend::tick(Cycle now) {
  complete_due(now);

  // Miss-bus arbitration: one grant per bus-free window, round-robin over
  // requester queues (the paper's round-robin line-refill policy).  A
  // transaction enqueued with a future cycle (the L2 dates miss refills
  // after the tag check) only competes once that cycle has arrived.
  // The round-robin order is rr_next_ .. n-1, then 0 .. rr_next_-1, over
  // the waiting requesters only.
  if (bus_free_at_ > now || waiting_.empty()) return;
  const std::size_t n = queues_.size();
  std::size_t q = next_ready(rr_next_, n, now);
  if (q == IndexSet::npos) q = next_ready(0, rr_next_, now);
  if (q == IndexSet::npos) return;
  const Txn txn = queues_[q].front();
  queues_[q].pop_front();
  if (queues_[q].empty()) waiting_.erase(q);
  --pending_count_;
  rr_next_ = (q + 1) % n;

  stats_.total_wait_cycles += now - txn.enqueued;
  bus_free_at_ = now + cfg_.bus_transfer_cycles;

  // Channel serialisation at the controller.
  const Cycle start = std::max(now + cfg_.bus_transfer_cycles, channel_free_at_);
  channel_free_at_ = start + cfg_.channel_burst_cycles;
  stats_.dynamic_energy_pj += cfg_.energy_per_access_pj;

  if (txn.is_write) {
    ++stats_.writes;
    // Posted: occupies bandwidth only.
  } else {
    ++stats_.reads;
    schedule_read(txn, start + access_latency_cycles(txn.addr));
  }
}

Cycle DramBackend::next_event(Cycle now) const {
  Cycle next = next_completion(now);
  // Per-requester FIFOs grant strictly from the head; the earliest grant
  // is bounded by the bus and the earliest head arrival.
  for (std::size_t q = waiting_.next(0); q != IndexSet::npos;
       q = waiting_.next(q + 1)) {
    next = std::min(next,
                    std::max({bus_free_at_, queues_[q].front().enqueued, now}));
    if (next <= now) break;
  }
  return next;
}

}  // namespace mot3d::mem
