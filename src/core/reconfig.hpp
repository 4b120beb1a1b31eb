// Power-state reconfiguration sequencing (paper Section III).
//
// "If cache banks are turned off at runtime, dirty cache blocks in the
// power-off banks must be written back to the off-cluster memory for data
// coherency.  After turning on the cache banks again, the old cache data
// that does not belong to cache banks any more will be removed by the
// cache replacement policy."
//
// core::reconfigure performs exactly that protocol: with the cores quiesced
// it (1) flushes the dirty lines of every bank about to be gated, posting
// the write-backs to the memory backend, (2) reprograms the ctr signals of
// every routing switch, (3) updates the L2 powered-bank mask, and (4)
// re-slices the coherence directory, if any, onto the surviving banks.
// Stale lines in surviving banks are left to die by replacement, as in the
// paper.
#pragma once

#include <cstdint>

#include "coherence/directory.hpp"
#include "common/types.hpp"
#include "core/mot_interconnect.hpp"
#include "core/power_state.hpp"
#include "mem/memory_backend.hpp"
#include "mem/l2_system.hpp"

namespace mot3d::core {

/// Cost summary of one state transition.
struct ReconfigCost {
  std::uint64_t dirty_lines_flushed = 0;
  /// Serialisation of the write-backs: dirty lines x the backend's
  /// MemoryBackend::flush_line_cycles().
  Cycle flush_cycles = 0;
  Cycle reprogram_cycles = 0;   ///< ctr-signal distribution to the switches
  double flush_energy_pj = 0.0; ///< bank read-outs for the flushed lines
  /// Directory entries re-sliced onto the surviving banks (0 without a
  /// coherence directory).  L1 contents are not flushed by a bank-gating
  /// transition, so the sharer/owner state must follow the remap.
  std::uint64_t dir_entries_migrated = 0;
};

/// Transition `mot`, `l2` and (when non-null) `dir` to `next` at time
/// `now`, posting the gated banks' dirty lines to `dram`.  Precondition:
/// the cores are quiesced (no request in flight through the interconnect)
/// — asserted via Interconnect::idle().  Throws std::invalid_argument (a
/// clear error, not an assert) if `next` would leave zero active banks — a
/// request the fault-degradation path can generate.
ReconfigCost reconfigure(MotInterconnect& mot, mem::L2System& l2,
                         mem::MemoryBackend& dram,
                         coherence::CoherenceDirectory* dir,
                         const PowerState& next, Cycle now);

}  // namespace mot3d::core
