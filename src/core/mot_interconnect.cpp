#include "core/mot_interconnect.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/trace.hpp"

namespace mot3d::core {

MotInterconnect::MotInterconnect(const MotTimingModel& timing,
                                 const PowerState& initial,
                                 MotInterconnectConfig cfg)
    : timing_(timing),
      cfg_(cfg),
      state_(initial),
      state_timing_(timing.timing(initial)),
      routing_(initial.total_banks()),
      bank_arbiters_(initial.total_banks(),
                     ArbitrationTree(initial.total_cores())),
      core_slot_(initial.total_cores()),
      bank_free_at_(initial.total_banks(), 0),
      bank_waiters_(initial.total_banks()),
      pending_banks_(initial.total_banks()),
      bank_fault_penalty_(initial.total_banks(), 0) {
  configure(initial);
}

void MotInterconnect::configure(const PowerState& state) {
  state_ = state;
  state_timing_ = timing_.timing(state);
  for (const bool line : {false, true}) {
    request_pj_[line] = timing_.request_energy_pj(state, line);
    response_pj_[line] = timing_.response_energy_pj(state, line);
  }
  routing_.configure(state);
  // Gating depends only on the core mask: compute it once for all banks.
  const auto gating = ArbitrationTree::gating(state);
  for (ArbitrationTree& at : bank_arbiters_) at.configure(gating);
  // Rebuild the waiter index from the slots.  Reconfiguration normally
  // happens drained (no valid slots); in-flight requests keep the physical
  // bank they were routed to at injection, exactly as before.
  for (std::vector<CoreId>& w : bank_waiters_) w.clear();
  pending_banks_.clear();
  for (CoreId c = 0; c < core_slot_.size(); ++c) {
    if (core_slot_[c].valid) add_waiter(c, core_slot_[c].physical_bank);
  }
}

void MotInterconnect::add_waiter(CoreId core, BankId bank) {
  bank_waiters_[bank].push_back(core);
  pending_banks_.insert(bank);
}

void MotInterconnect::remove_waiter(CoreId core, BankId bank) {
  std::vector<CoreId>& w = bank_waiters_[bank];
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (w[i] == core) {
      // Waiter order is immaterial: the arbitration tree alone picks the
      // winner, and arbitrate_sparse is candidate-order independent.
      w[i] = w.back();
      w.pop_back();
      break;
    }
  }
  if (w.empty()) pending_banks_.erase(bank);
}

void MotInterconnect::add_bank_fault_penalty(BankId b, unsigned cycles) {
  if (b >= bank_fault_penalty_.size()) throw std::out_of_range("bad bank id");
  bank_fault_penalty_[b] += cycles;
}

BankId MotInterconnect::route(BankId logical) const {
  const std::optional<BankId> phys = routing_.resolve(logical);
  assert(phys.has_value() && "routing tree blocked an in-range bank index");
  return *phys;
}

bool MotInterconnect::try_inject_request(const MemRequest& req, Cycle now) {
  if (req.core >= core_slot_.size()) throw std::out_of_range("bad core id");
  assert(state_.core_active(req.core) && "gated core injected a request");
  InFlight& slot = core_slot_[req.core];
  if (slot.valid) return false;  // circuit already held by this core

  slot.req = req;
  slot.physical_bank = route(req.bank);
  slot.eligible = now + state_timing_.request_cycles;
  slot.valid = true;
  add_waiter(req.core, slot.physical_bank);
  ++stats_.requests_injected;
  dynamic_energy_pj_ += request_pj_[req.is_write];
  return true;
}

bool MotInterconnect::try_inject_response(const MemResponse& resp, Cycle now) {
  responses_.push_back(PendingResponse{resp, now + state_timing_.response_cycles});
  ++stats_.responses_injected;
  // Read responses carry the refilled line; write acks are header-only.
  dynamic_energy_pj_ += response_pj_[!resp.is_write];
  return true;
}

void MotInterconnect::tick(Cycle now) {
  // 1. Deliver responses whose constant-delay return path has elapsed.
  while (!responses_.empty() && responses_.front().due <= now) {
    const PendingResponse& pr = responses_.front();
    ++stats_.responses_delivered;
    delivered_responses_.push_back(pr.resp);
    responses_.pop_front();
  }

  // 2. Per-bank arbitration among the requests that have traversed their
  //    routing trees.  One grant per bank per cycle, gated by the circuit
  //    hold of the previous transaction.  Only banks with waiters are
  //    visited (ascending bank id, same order as the dense scan); grants at
  //    one bank cannot create or remove contenders at another within the
  //    same cycle, since each core holds exactly one slot.  A grant can
  //    only erase the visited bank, so the walk adds no member.
  pending_banks_.for_each([this, now](std::size_t bank) {
    const auto b = static_cast<BankId>(bank);
    if (!state_.bank_active(b) || bank_free_at_[b] > now) return;
    candidates_.clear();
    for (const CoreId c : bank_waiters_[b]) {
      if (core_slot_[c].eligible <= now) candidates_.push_back(c);
    }
    if (candidates_.empty()) return;
    const std::optional<CoreId> winner =
        bank_arbiters_[b].arbitrate_sparse(candidates_.data(),
                                           candidates_.size(), arb_scratch_);
    assert(winner.has_value());
    InFlight& s = core_slot_[*winner];
    stats_.arbitration_wait_cycles += now - s.eligible;
    ++stats_.requests_delivered;
    if (trace_ != nullptr) {
      // One complete event per grant: ts = routing-tree arrival, dur =
      // cycles lost to arbitration/circuit hold.  Grant count and the
      // sum of durations therefore reproduce requests_delivered and
      // arbitration_wait_cycles exactly (pinned by the obs cross-check
      // test).
      trace_->complete("grant", trace_track_, s.eligible, now - s.eligible,
                       "core", *winner, "bank", b);
    }
    bank_free_at_[b] = now + cfg_.bank_hold_cycles + bank_fault_penalty_[b];
    if (bank_fault_penalty_[b] > 0) {
      // Degraded TSV column: the circuit establishment needs retry pulses.
      dynamic_energy_pj_ += kFaultRetryEnergyPj;
      fault_retry_pj_ += kFaultRetryEnergyPj;
    }
    MemRequest delivered = s.req;
    delivered.bank = b;  // physical
    s.valid = false;
    remove_waiter(*winner, b);
    delivered_requests_.push_back(delivered);
  });
}

Cycle MotInterconnect::next_event(Cycle now) const {
  Cycle next = kNeverCycle;
  // Head-of-line response delivery: tick() drains strictly from the front.
  if (!responses_.empty()) {
    next = std::max(responses_.front().due, now);
    if (next <= now) return now;
  }
  // Earliest possible grant per held circuit: the request must have
  // traversed its routing tree and the target bank's circuit hold must
  // have expired.  Losing arbitration can only delay a grant to a later
  // cycle that this bound re-derives after the winning grant is ticked.
  // Every valid slot sits in exactly one bank's waiter list, so walking
  // the pending banks visits the same set the dense slot scan did.
  for (std::size_t b = pending_banks_.next(0); b != IndexSet::npos;
       b = pending_banks_.next(b + 1)) {
    const Cycle free_at = bank_free_at_[b];
    for (const CoreId c : bank_waiters_[b]) {
      const Cycle cand = std::max({core_slot_[c].eligible, free_at, now});
      next = std::min(next, cand);
      if (next <= now) return now;
    }
  }
  return next;
}

bool MotInterconnect::idle() const {
  return responses_.empty() && pending_banks_.empty();
}

}  // namespace mot3d::core
