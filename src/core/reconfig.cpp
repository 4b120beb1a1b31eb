#include "core/reconfig.hpp"

#include <cassert>
#include <stdexcept>

namespace mot3d::core {

ReconfigCost reconfigure(MotInterconnect& mot, mem::L2System& l2,
                         mem::MemoryBackend& dram,
                         coherence::CoherenceDirectory* dir,
                         const PowerState& next, Cycle now) {
  // The fault-degradation path can request arbitrary gating masks; a state
  // with no powered bank would brick the cluster mid-run, so reject it
  // loudly instead of tripping asserts downstream.
  if (next.active_banks() == 0) {
    throw std::invalid_argument(
        "reconfiguration rejected: target power state '" + next.name() +
        "' would leave zero active banks");
  }
  assert(mot.idle() && "cores must be quiesced before reconfiguration");

  ReconfigCost cost;
  const PowerState& current = mot.state();
  const mem::L2Config& l2_cfg = l2.config();

  for (BankId b = 0; b < current.total_banks(); ++b) {
    const bool on_now = current.bank_active(b);
    const bool on_next = next.bank_active(b);
    if (!on_now || on_next) continue;  // only banks being switched off flush
    const std::size_t dirty = l2.dirty_lines(b);
    cost.dirty_lines_flushed += dirty;
    cost.flush_energy_pj += static_cast<double>(dirty) * l2_cfg.read_energy_pj;
    for (Addr line : l2.flush_bank(b)) dram.write(b, line, now);
  }

  // The write-backs serialise on the memory side's transfer path.
  cost.flush_cycles = cost.dirty_lines_flushed * dram.flush_line_cycles();

  // ctr-signal distribution: one control word per routing-tree level,
  // serialised over a narrow configuration chain.
  cost.reprogram_cycles =
      2 * (log2_exact(current.total_banks()) + log2_exact(current.total_cores()));

  mot.configure(next);
  l2.set_active_banks(next.bank_mask());
  if (dir != nullptr) {
    // The drain precondition guarantees no transaction (and no
    // invalidation) is in flight, so the directory can be re-sliced
    // atomically: every tracked line moves to the physical bank its
    // logical index now routes to.  Sharer/owner state survives — the
    // L1s were not flushed, only the L2 banks being gated were.
    const std::uint64_t before = dir->stats().dir_migrations;
    dir->remap([&mot](BankId logical) { return mot.route(logical); });
    cost.dir_entries_migrated = dir->stats().dir_migrations - before;
  }
  return cost;
}

}  // namespace mot3d::core
