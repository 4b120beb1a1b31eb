#include "cpu/core.hpp"

#include <algorithm>
#include <cassert>

namespace mot3d::cpu {

Core::Core(CoreId id, const CoreConfig& cfg, TraceSource& trace,
           BarrierController& barriers, IFetchIssue ifetch_issue)
    : id_(id),
      cfg_(cfg),
      line_shift_(log2_exact(cfg.l1d.line_bytes)),
      trace_(&trace),
      barriers_(&barriers),
      ifetch_issue_(std::move(ifetch_issue)),
      l1i_(cfg.l1i),
      l1d_(cfg.l1d) {
  assert(is_pow2(cfg.l2_banks));
}

bool Core::tick(Cycle now) {
  switch (state_) {
    case State::kDone:
      ++stats_.idle_cycles;
      return false;
    case State::kCompute:
      ++stats_.busy_cycles;
      ++stats_.instructions;
      if (--compute_remaining_ == 0) state_ = State::kFetch;
      return false;
    case State::kWaitInject:
    case State::kWaitMem:
    case State::kWaitIFetch:
      ++stats_.stall_cycles;
      return false;
    case State::kAtBarrier:
      if (!barriers_->released(barrier_id_)) {
        ++stats_.spin_cycles;
        return false;
      }
      state_ = State::kFetch;
      process_next_record(now);
      return true;
    case State::kFetch:
      process_next_record(now);
      return true;
  }
  return false;
}

Cycle Core::next_event(Cycle now) const {
  switch (state_) {
    case State::kFetch:
      return now;  // consumes a record every cycle
    case State::kCompute:
      return now + compute_remaining_;
    case State::kAtBarrier:
      return barriers_->released(barrier_id_) ? now : kNeverCycle;
    case State::kWaitInject:  // the cluster's injection phase retries
    case State::kWaitMem:
    case State::kWaitIFetch:
    case State::kDone:
      return kNeverCycle;  // woken externally (or never)
  }
  return now;
}

void Core::skip(Cycle from, Cycle to) {
  const Cycle delta = to - from;
  if (delta == 0) return;
  switch (state_) {
    case State::kDone:
      stats_.idle_cycles += delta;
      return;
    case State::kWaitInject:
    case State::kWaitMem:
    case State::kWaitIFetch:
      stats_.stall_cycles += delta;
      return;
    case State::kAtBarrier:
      // A waiter spins through the cycle its barrier is released in when
      // the releasing core ticks after it in the cluster's arena order;
      // never past that cycle.
      assert(!barriers_->released_before(barrier_id_, to - 1));
      stats_.spin_cycles += delta;
      return;
    case State::kCompute:
      assert(delta <= compute_remaining_);
      stats_.busy_cycles += delta;
      stats_.instructions += delta;
      compute_remaining_ -= static_cast<std::uint32_t>(delta);
      if (compute_remaining_ == 0) state_ = State::kFetch;
      return;
    case State::kFetch:
      assert(false && "skipped over a core that could make progress");
      return;
  }
}

const char* Core::state_name() const {
  switch (state_) {
    case State::kFetch: return "fetch";
    case State::kCompute: return "compute";
    case State::kWaitInject: return "wait-inject";
    case State::kWaitMem: return "wait-mem";
    case State::kWaitIFetch: return "wait-ifetch";
    case State::kAtBarrier: return "at-barrier";
    case State::kDone: return "done";
  }
  return "?";
}

void Core::process_next_record(Cycle now) {
  // Instruction-cache hits are overlapped with execution (zero cost), so we
  // may chain through a bounded number of them within one cycle.
  constexpr unsigned kMaxZeroCostRecords = 4;
  for (unsigned chained = 0; chained <= kMaxZeroCostRecords; ++chained) {
    const TraceRecord r = trace_->next();
    switch (r.kind) {
      case TraceKind::kEnd:
        state_ = State::kDone;
        stats_.finish_cycle = now;
        ++stats_.idle_cycles;
        return;

      case TraceKind::kBarrier:
        barriers_->arrive(r.barrier_id, now);
        barrier_id_ = r.barrier_id;
        state_ = State::kAtBarrier;
        ++stats_.busy_cycles;  // executing the barrier arrival
        return;

      case TraceKind::kCompute:
        if (r.compute_cycles == 0) continue;  // degenerate, zero-cost
        ++stats_.busy_cycles;
        ++stats_.instructions;
        if (r.compute_cycles > 1) {
          compute_remaining_ = r.compute_cycles - 1;
          state_ = State::kCompute;
        }
        return;

      case TraceKind::kMem: {
        if (r.op == MemOp::kInstrFetch) {
          if (l1i_.lookup(r.addr, /*is_write=*/false).hit) continue;  // free
          ++stats_.ifetch_misses;
          ++stats_.stall_cycles;
          refill_addr_ = r.addr;
          state_ = State::kWaitIFetch;
          ifetch_issue_(id_, line_of(r.addr), now);
          return;
        }
        ++stats_.instructions;
        const bool store = is_write(r.op);
        const mem::LookupResult lr = l1d_.lookup(r.addr, store);
        if (lr.hit && !lr.needs_upgrade) {
          ++stats_.busy_cycles;  // Table I: 1-cycle L1 latency
          return;                // state stays kFetch
        }
        ++stats_.stall_cycles;
        if (lr.hit) {
          // Store hit on a Shared line: coherence upgrade before dirtying.
          issue_upgrade(r.addr, now);
        } else {
          issue_data_miss(r.addr, store, now);
        }
        return;
      }
    }
  }
  // Pathological run of zero-cost records: charge a cycle to keep time moving.
  ++stats_.busy_cycles;
}

void Core::issue_data_miss(Addr addr, bool store_miss, Cycle now) {
  const Addr line = line_of(addr);
  refill_addr_ = line;
  refill_is_store_ = store_miss;
  inflight_is_writeback_ = false;
  pending_ = MemRequest{
      .id = (static_cast<std::uint64_t>(id_) << 32) | next_req_seq_++,
      .core = id_,
      .bank = bank_of(line),
      .addr = line,
      .is_write = false,  // refill fetch; write-allocate dirties on insert
      .issue_cycle = now,
      .kind = store_miss ? ReqKind::kGetX : ReqKind::kGetS,
  };
  state_ = State::kWaitInject;
}

void Core::issue_upgrade(Addr addr, Cycle now) {
  const Addr line = line_of(addr);
  refill_addr_ = line;
  refill_is_store_ = true;  // if the grant degenerates to data, install dirty
  inflight_is_writeback_ = false;
  ++stats_.upgrades;
  pending_ = MemRequest{
      .id = (static_cast<std::uint64_t>(id_) << 32) | next_req_seq_++,
      .core = id_,
      .bank = bank_of(line),
      .addr = line,
      .is_write = false,  // header-only permission request
      .issue_cycle = now,
      .kind = ReqKind::kUpgrade,
  };
  state_ = State::kWaitInject;
}

void Core::injection_accepted(Cycle now) {
  (void)now;
  assert(state_ == State::kWaitInject && pending_.has_value());
  ++stats_.l2_requests;
  pending_.reset();
  state_ = State::kWaitMem;
}

void Core::on_response(const MemResponse& resp, Cycle now) {
  assert(state_ == State::kWaitMem);
  assert(resp.core == id_);
  if (inflight_is_writeback_) {
    // Dirty-victim write-back acknowledged; resume the instruction stream.
    inflight_is_writeback_ = false;
    state_ = State::kFetch;
    return;
  }
  if (resp.kind == RespKind::kUpgradeAck && l1d_.complete_upgrade(refill_addr_)) {
    refill_invalidated_ = false;
    state_ = State::kFetch;
    return;
  }
  // Refill arrived: install in L1D, possibly displacing a dirty victim that
  // must be written back to the L2 before execution continues (blocking,
  // in-order core with a single victim buffer).  An upgrade whose line was
  // invalidated mid-flight lands here too (the directory answered with
  // data, or the grant found the line gone) and installs dirty.
  //
  // If the directory invalidated this very line while a *clean* refill was
  // in flight (the grant was decided before a later transaction re-assigned
  // the line), the grant is stale: install Shared so the next store must
  // win an upgrade — the directory then sees a non-sharer and restores the
  // single-writer invariant with a full GetX.  Store refills stay exclusive
  // (Shared lines are read-only by invariant): their grants are ordered
  // after the invalidating transaction at the serialising bank, or at worst
  // leave a self-limited stale copy that the next eviction retires.
  const bool shared = (resp.kind == RespKind::kData && resp.shared) ||
                      (refill_invalidated_ && !refill_is_store_);
  refill_invalidated_ = false;
  const mem::InsertResult ins = l1d_.insert(refill_addr_, refill_is_store_, shared);
  if (ins.evicted_dirty) {
    ++stats_.l1_writebacks;
    inflight_is_writeback_ = true;
    pending_ = MemRequest{
        .id = (static_cast<std::uint64_t>(id_) << 32) | next_req_seq_++,
        .core = id_,
        .bank = bank_of(ins.evicted_line_addr),
        .addr = ins.evicted_line_addr,
        .is_write = true,
        .issue_cycle = now,
        .kind = ReqKind::kWriteback,
    };
    state_ = State::kWaitInject;
    return;
  }
  state_ = State::kFetch;
}

void Core::on_coherence_invalidate(const MemResponse& inv, Cycle now) {
  assert(inv.core == id_);
  ++stats_.invalidations_received;
  // The copy may already be gone (silent clean eviction left stale sharer
  // bits behind): acknowledge without data.
  const bool forward = l1d_.invalidate(inv.addr).value_or(false);
  // Invalidation racing our own in-flight miss/upgrade of the same line:
  // remember it so the eventual install is demoted to Shared (see
  // on_response) instead of resurrecting a copy the directory dropped.
  if (!inflight_is_writeback_ &&
      (state_ == State::kWaitMem || state_ == State::kWaitInject) &&
      line_of(inv.addr) == refill_addr_) {
    refill_invalidated_ = true;
  }
  if (forward) ++stats_.coherence_forwards;
  coh_queue_.push_back(MemRequest{
      .id = (static_cast<std::uint64_t>(id_) << 32) | next_req_seq_++,
      .core = id_,
      .bank = bank_of(inv.addr),
      .addr = line_of(inv.addr),
      .is_write = forward,  // a dirty forward carries the line
      .issue_cycle = now,
      .kind = forward ? ReqKind::kDataForward : ReqKind::kInvAck,
  });
}

void Core::coherence_accepted(Cycle now) {
  (void)now;
  assert(!coh_queue_.empty());
  coh_queue_.pop_front();
}

void Core::warm_l1i(Addr base, std::size_t bytes) {
  const std::size_t line = cfg_.l1i.line_bytes;
  // The code's lines touch at most this many sets.
  l1i_.reserve_sets(std::min((bytes + line - 1) / line, cfg_.l1i.num_sets()));
  for (Addr a = base; a < base + bytes; a += line) {
    l1i_.insert(a, /*dirty=*/false);
  }
}

void Core::on_ifetch_refill(Addr addr, Cycle now) {
  (void)now;
  assert(state_ == State::kWaitIFetch);
  l1i_.insert(addr, /*dirty=*/false);  // instruction lines are never dirty
  state_ = State::kFetch;
}

}  // namespace mot3d::cpu
