#include "mem/l2_system.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/interconnect.hpp"
#include "obs/trace.hpp"

namespace mot3d::mem {

L2System::L2System(const L2Config& cfg, MemoryBackend& dram)
    : cfg_(cfg), dram_(dram) {
  if (!is_pow2(cfg.total_banks)) {
    throw std::invalid_argument("bank count must be a power of two");
  }
  const CacheConfig cc{
      .capacity_bytes = cfg.bank_capacity_bytes,
      .line_bytes = cfg.line_bytes,
      .associativity = cfg.associativity,
      // Skip the bank-interleave bits when indexing sets inside a bank.
      .index_shift = log2_exact(cfg.total_banks),
  };
  banks_.reserve(cfg.total_banks);
  for (std::size_t i = 0; i < cfg.total_banks; ++i) banks_.emplace_back(cc);
  active_.assign(cfg.total_banks, true);
  live_ = IndexSet(cfg.total_banks);
}

void L2System::deliver(const MemRequest& req, Cycle now) {
  assert(req.bank < banks_.size());
  assert(active_[req.bank] && "request routed to a power-gated bank");
  // Invalidation acknowledgements are directory control traffic: they are
  // consumed on arrival (the directory slice sits next to the bank) and
  // never occupy the SRAM array, so they cannot deadlock behind the very
  // transaction that is waiting for them.
  if (dir_ != nullptr &&
      (req.kind == ReqKind::kInvAck || req.kind == ReqKind::kDataForward)) {
    dir_->on_ack(req);
    stats_.dynamic_energy_pj += coherence::kDirAccessEnergyPj;
    Bank& bank = banks_[req.bank];
    assert(bank.coh_pending.has_value() && bank.coh_pending->acks_remaining > 0 &&
           "ack without a stalled transaction");
    --bank.coh_pending->acks_remaining;
    if (req.kind == ReqKind::kDataForward) bank.coh_pending->forwarded_dirty = true;
    if (bank.coh_pending->acks_remaining == 0) mark_live(req.bank);
    (void)now;
    return;
  }
  banks_[req.bank].in_queue.push_back(PendingAccess{req, now});
  mark_live(req.bank);
}

void L2System::on_read_done(std::uint32_t bank_id, std::uint64_t tag,
                            Addr /*addr*/, Cycle now) {
  // Match on the request id: under the open-page policy a second miss on
  // the same line can be a row hit and complete before the first.
  Bank& bank = banks_[bank_id];
  const auto it =
      std::find_if(bank.misses.begin(), bank.misses.end(),
                   [tag](const Miss& m) { return m.req.id == tag; });
  assert(it != bank.misses.end() && "refill without an outstanding miss");
  const Miss miss = *it;
  bank.misses.erase(it);
  --misses_total_;
  const MemRequest& req = miss.req;
  const InsertResult ins = bank.cache.insert(req.addr, /*dirty=*/req.is_write);
  stats_.dynamic_energy_pj += cfg_.write_energy_pj;  // fill write
  if (ins.evicted_dirty) {
    ++stats_.writebacks;
    stats_.dynamic_energy_pj += cfg_.read_energy_pj;  // victim read-out
    dram_.write(bank_id, ins.evicted_line_addr, now);
  }
  respond(bank_id, req, now, RespKind::kData, /*l2_hit=*/false, req.is_write,
          miss.install_shared);
}

void L2System::respond(BankId bank_id, const MemRequest& req, Cycle now,
                       RespKind kind, bool l2_hit, bool is_write, bool shared) {
  banks_[bank_id].out_queue.push_back(
      ReadyResponse{MemResponse{.id = req.id,
                                .core = req.core,
                                .bank = bank_id,
                                .addr = req.addr,
                                .is_write = is_write,
                                .l2_hit = l2_hit,
                                .issue_cycle = req.issue_cycle,
                                .kind = kind,
                                .shared = shared},
                    now + cfg_.access_cycles});
  mark_live(bank_id);
}

void L2System::finish_request(BankId bank_id, const MemRequest& req, Cycle now,
                              bool upgrade_ack, bool install_shared,
                              bool forwarded_dirty) {
  Bank& bank = banks_[bank_id];
  if (upgrade_ack) {
    // Permission grant: the directory/tag probe was the whole access; the
    // response is header-only (is_write => no line payload on the fabric).
    respond(bank_id, req, now, RespKind::kUpgradeAck, /*l2_hit=*/true,
            /*is_write=*/true, /*shared=*/false);
    return;
  }
  // The owner's forwarded line *is* the data: when the (non-inclusive)
  // bank has evicted its copy, the forward installs it like a refill —
  // no Miss-bus round trip, and no demand lookup charged to the bank's
  // CacheStats (so the per-bank hit-rate spread keeps counting only
  // demand accesses, consistent with the run's l2_hits/l2_misses).
  if (forwarded_dirty && !bank.cache.probe(req.addr)) {
    ++stats_.hits;
    const InsertResult ins = bank.cache.insert(req.addr, /*dirty=*/true);
    stats_.dynamic_energy_pj += cfg_.write_energy_pj;  // fill write
    if (ins.evicted_dirty) {
      ++stats_.writebacks;
      stats_.dynamic_energy_pj += cfg_.read_energy_pj;  // victim read-out
      dram_.write(bank_id, ins.evicted_line_addr, now);
    }
    respond(bank_id, req, now, RespKind::kData, /*l2_hit=*/true, req.is_write,
            install_shared);
    return;
  }
  // A forwarded dirty line landing on a resident copy turns the access
  // into a write (the data is deposited as part of the same array pass).
  const bool array_write = req.is_write || forwarded_dirty;
  const LookupResult lr = bank.cache.lookup(req.addr, array_write);
  stats_.dynamic_energy_pj +=
      array_write ? cfg_.write_energy_pj : cfg_.read_energy_pj;
  if (lr.hit) {
    ++stats_.hits;
    respond(bank_id, req, now, RespKind::kData, /*l2_hit=*/true, req.is_write,
            install_shared);
  } else {
    ++stats_.misses;
    bank.misses.push_back(Miss{req, install_shared});
    ++misses_total_;
    if (trace_ != nullptr) {
      trace_->instant("l2_miss", trace_bank_base_ + bank_id, now, "core",
                      req.core, "addr", req.addr);
    }
    // Tag check took access_cycles; then the line refill goes out on
    // the round-robin Miss bus.
    dram_.read(bank_id, req.addr, now + cfg_.access_cycles, req.id);
  }
}

void L2System::tick(Cycle now) {
  // Only live banks can have work (deliver/ack/respond raise the bit);
  // ascending bank order matches the old dense sweep, so every stat and
  // energy accumulation happens in the same sequence.  A visit can raise
  // only its own bank's bit (finish_request -> respond), so the walk adds
  // no member.
  live_.for_each([this, now](std::size_t bank_id) {
    const auto b = static_cast<BankId>(bank_id);
    Bank& bank = banks_[b];

    // Resume a coherence-stalled transaction once every invalidation has
    // been acknowledged (head-of-line: the queue waits behind it).
    if (bank.coh_pending.has_value()) {
      if (bank.coh_pending->acks_remaining == 0 && bank.busy_until <= now) {
        const CohPending p = *bank.coh_pending;
        bank.coh_pending.reset();
        --coh_stalls_;
        bank.busy_until = now + cfg_.service_cycles;
        finish_request(b, p.req, now, p.upgrade_ack, p.install_shared,
                       p.forwarded_dirty);
      }
    } else if (!bank.in_queue.empty() && bank.busy_until <= now) {
      // Start the next access when the bank array is free.
      PendingAccess pa = bank.in_queue.front();
      bank.in_queue.pop_front();
      stats_.bank_conflict_cycles += now - pa.arrived;
      bank.busy_until = now + cfg_.service_cycles;

      if (dir_ != nullptr) {
        const coherence::DirOutcome d = dir_->on_request(pa.req, b);
        stats_.dynamic_energy_pj += coherence::kDirAccessEnergyPj;
        if (!d.invalidate.empty()) {
          // Invalidations ride the response network to the sharers; the
          // transaction parks at the bank head until every ack is back.
          for (CoreId target : d.invalidate) {
            MemResponse inv{
                .id = pa.req.id,
                .core = target,
                .bank = b,
                .addr = pa.req.addr,
                .is_write = true,  // header-only message
                .l2_hit = true,
                .issue_cycle = now,
                .kind = RespKind::kInvalidate,
                .shared = false,
            };
            bank.out_queue.push_back(ReadyResponse{inv, now + cfg_.access_cycles});
          }
          bank.coh_pending =
              CohPending{pa.req, static_cast<unsigned>(d.invalidate.size()),
                         false, d.upgrade_ack, d.install_shared};
          ++coh_stalls_;
          if (trace_ != nullptr) {
            // One instant per parked transaction; the per-sharer
            // invalidations and acks appear on the core tracks.
            trace_->instant("inv_send", trace_bank_base_ + b, now, "core",
                            pa.req.core, "acks", d.invalidate.size());
          }
        } else {
          finish_request(b, pa.req, now, d.upgrade_ack, d.install_shared,
                         false);
        }
      } else {
        finish_request(b, pa.req, now, false, false, false);
      }
    }

    // Push ready responses into the interconnect, preserving order.
    while (!bank.out_queue.empty() && bank.out_queue.front().due <= now &&
           transport_->try_inject_response(bank.out_queue.front().resp,
                                           now)) {
      bank.out_queue.pop_front();
    }

    // Drop the bank from the live set once nothing remains observable:
    // a stall awaiting acks wakes up via the final-ack delivery, an
    // in-flight miss via the DRAM refill — both re-raise the bit.
    const bool keep = !bank.out_queue.empty() ||
                      (bank.coh_pending.has_value()
                           ? bank.coh_pending->acks_remaining == 0
                           : !bank.in_queue.empty());
    if (!keep) live_.erase(b);
  });
}

Cycle L2System::next_event(Cycle now) const {
  // Non-live banks contribute no event by construction: they have an empty
  // out-queue and either an ack-blocked stall (woken by delivery, not by
  // time) or an empty in-queue.
  Cycle next = kNeverCycle;
  for (std::size_t b = live_.next(0); b != IndexSet::npos;
       b = live_.next(b + 1)) {
    const Bank& bank = banks_[b];
    if (bank.coh_pending.has_value()) {
      // A stalled transaction only becomes serviceable when its last ack
      // arrives — an interconnect-delivery event, not an L2 one.  Once the
      // acks are in, resumption is gated by the bank occupancy alone.
      if (bank.coh_pending->acks_remaining == 0) {
        const Cycle start = std::max(bank.busy_until, now);
        if (start <= now) return now;
        next = std::min(next, start);
      }
    } else if (!bank.in_queue.empty()) {
      const Cycle start = std::max(bank.busy_until, now);
      if (start <= now) return now;
      next = std::min(next, start);
    }
    // Responses leave strictly from the front; a due-but-blocked response
    // (interconnect back-pressure) keeps the bank ticking densely.
    if (!bank.out_queue.empty()) {
      const Cycle due = std::max(bank.out_queue.front().due, now);
      if (due <= now) return now;
      next = std::min(next, due);
    }
  }
  return next;
}

bool L2System::idle() const {
  // With no misses and no stalls, any queued work keeps its bank live.
  return misses_total_ == 0 && coh_stalls_ == 0 && live_.empty();
}

void L2System::set_active_banks(const std::vector<bool>& active) {
  if (active.size() != banks_.size()) {
    throw std::invalid_argument("active mask size mismatch");
  }
  if (std::none_of(active.begin(), active.end(), [](bool a) { return a; })) {
    throw std::invalid_argument(
        "reconfiguration rejected: gating request would leave zero active "
        "L2 banks");
  }
  active_ = active;
}

std::size_t L2System::num_active_banks() const {
  std::size_t n = 0;
  for (bool a : active_) n += a ? 1 : 0;
  return n;
}

std::vector<Addr> L2System::flush_bank(BankId b) {
  return banks_.at(b).cache.flush();
}

std::size_t L2System::dirty_lines(BankId b) const {
  return banks_.at(b).cache.dirty_lines();
}

std::size_t L2System::resident_lines() const {
  std::size_t n = 0;
  for (const Bank& bank : banks_) n += bank.cache.valid_lines();
  return n;
}

L2System::BankDebug L2System::bank_debug(BankId b) const {
  const Bank& bank = banks_.at(b);
  BankDebug d;
  d.in_queue = bank.in_queue.size();
  d.out_queue = bank.out_queue.size();
  d.misses = bank.misses.size();
  d.coh_stalled = bank.coh_pending.has_value();
  d.coh_acks_remaining =
      bank.coh_pending.has_value() ? bank.coh_pending->acks_remaining : 0;
  return d;
}

}  // namespace mot3d::mem
