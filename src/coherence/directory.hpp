// Directory-based MESI coherence for the stacked L2 (cf. MemPool-3D and
// the 3D-MPSoC cache-support work: directory slices co-located with the
// cache banks on the stacked tiers).
//
// One directory slice per *physical* L2 bank tracks, for every line with
// (potential) L1 copies, either the set of sharers (a bitvector sized to
// the core count) or the single exclusive owner.  The directory is a
// full-map duplicate-tag structure independent of L2 residency: entries
// outlive L2 evictions (non-inclusive hierarchy), so no back-invalidation
// traffic is modelled.  Clean L1 evictions are silent, which leaves
// imprecise (superset) sharer bits — the standard trade-off; spurious
// invalidations are acknowledged without data.
//
// The protocol is MESI with forward-invalidate on remote dirty hits: a
// read that finds the line exclusively owned elsewhere invalidates the
// owner (who forwards dirty data down to the bank) and grants the new
// reader Shared — from then on the line accumulates a sharer set and
// stores must win upgrades.  E and M are indistinguishable to the
// directory (silent E->M stores), so both are one kOwned state; the
// owner's ack tells the bank whether data flowed.
//
// Storage is sized to the core count: sharer bitvectors are arrays of
// 64-bit words ((cores + 63) / 64 of them), so 256- and 1024-core
// clusters track full-map sharer sets.  Each slice is an open-addressing
// hash table over line addresses whose entry fields live in parallel
// arenas (struct-of-arrays: keys, slot states, owner ids, and one flat
// sharer-word arena) — no per-entry heap nodes, so the slice walk of a
// heavy-sharing run stays cache-resident.
//
// Timing and transport live in mem::L2System (bank occupancy, out-queue
// delays) and the fabrics (message traversal); this class is the pure
// protocol state machine, which keeps it unit-testable.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/messages.hpp"
#include "common/types.hpp"

namespace mot3d::coherence {

/// Energy of one directory slice consult (lookup + state update), pJ — a
/// narrow tag/bitvector array next to the 64 KB data bank.  Charged to the
/// L2 component of the EnergyLedger.
inline constexpr double kDirAccessEnergyPj = 2.0;

struct CoherenceConfig {
  std::size_t total_cores = 16;
  std::size_t total_banks = 32;
  std::size_t line_bytes = 32;
};

/// Run-wide coherence counters (surfaced in the canonical metrics JSON).
struct CoherenceStats {
  std::uint64_t invalidations = 0;   ///< directory -> L1 invalidate messages
  std::uint64_t inv_acks = 0;        ///< clean acknowledgements received
  std::uint64_t data_forwards = 0;   ///< dirty acknowledgements (carry a line)
  std::uint64_t upgrades = 0;        ///< S -> M upgrade transactions granted
  std::uint64_t sharing_misses = 0;  ///< requests that hit remote L1 state
  std::uint64_t dir_accesses = 0;    ///< slice consults (energy accounting)
  std::uint64_t dir_peak_entries = 0;
  std::uint64_t dir_migrations = 0;  ///< entries moved by bank-gating remaps
};

/// What the bank must do for one request, as decided by the directory.
struct DirOutcome {
  /// Cores whose L1 copy must be invalidated before the request completes.
  /// Empty => the request proceeds immediately (no coherence stall).
  /// Always in ascending core-id order.
  std::vector<CoreId> invalidate;
  /// Answer with kUpgradeAck (header-only) instead of a kData refill.
  bool upgrade_ack = false;
  /// kData refills install in Shared state (other sharers remain).
  bool install_shared = false;
};

class CoherenceDirectory {
 public:
  explicit CoherenceDirectory(const CoherenceConfig& cfg);

  /// Protocol step for a demand request (kGetS/kGetX/kUpgrade/kWriteback)
  /// arriving at physical bank `bank`.  Updates directory state eagerly
  /// (sharers are removed when the invalidation is *sent*); the returned
  /// invalidation list only gates the requester's completion timing.
  DirOutcome on_request(const MemRequest& req, BankId bank);

  /// An invalidation acknowledgement (kInvAck/kDataForward) arrived.
  void on_ack(const MemRequest& ack);

  /// Re-slice every entry after a power-state remap: `route` maps a
  /// logical bank id to the physical bank now serving it.  Entries whose
  /// slice changes are migrated (counted); sharer/owner state survives the
  /// reconfiguration, matching L1 contents which are not flushed.
  /// Precondition: no transaction in flight (the reconfiguration drain).
  void remap(const std::function<BankId(BankId)>& route);

  std::size_t occupancy() const { return entries_; }  ///< tracked lines, all slices
  std::size_t slice_entries(BankId b) const { return slices_[b].size; }

  const CoherenceStats& stats() const { return stats_; }

 private:
  /// One slice: an open-addressing (linear-probe, tombstone-delete) table
  /// whose entry fields are parallel arrays over the slot index.  The
  /// sharer bitvectors of all slots live in one flat arena, words_ words
  /// per slot.
  struct Slice {
    std::vector<Addr> line;             ///< key, valid when kOccupied
    std::vector<std::uint8_t> slot;     ///< kEmpty / kOccupied / kTombstone
    std::vector<std::uint8_t> owned;    ///< one exclusive owner (MESI E/M)
    std::vector<CoreId> owner;          ///< valid when owned
    std::vector<std::uint64_t> sharers; ///< words_ per slot, valid when !owned
    std::size_t size = 0;               ///< occupied slots
    std::size_t used = 0;               ///< occupied + tombstone slots
    std::size_t mask = 0;               ///< capacity - 1 (0 = unallocated)
  };
  static constexpr std::uint8_t kEmpty = 0, kOccupied = 1, kTombstone = 2;
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  std::size_t find(const Slice& s, Addr line) const;
  /// Existing slot for `line`, or a fresh zeroed entry (grows the table).
  std::size_t find_or_insert(Slice& s, Addr line);
  void erase_at(Slice& s, std::size_t idx);
  void grow(Slice& s);

  std::uint64_t* sharer_at(Slice& s, std::size_t idx) {
    return s.sharers.data() + idx * words_;
  }
  const std::uint64_t* sharer_at(const Slice& s, std::size_t idx) const {
    return s.sharers.data() + idx * words_;
  }
  void clear_sharers(Slice& s, std::size_t idx);
  bool test_sharer(const Slice& s, std::size_t idx, CoreId c) const {
    return (sharer_at(s, idx)[c >> 6] >> (c & 63)) & 1u;
  }
  void set_sharer(Slice& s, std::size_t idx, CoreId c) {
    sharer_at(s, idx)[c >> 6] |= std::uint64_t{1} << (c & 63);
  }
  void clear_sharer(Slice& s, std::size_t idx, CoreId c) {
    sharer_at(s, idx)[c >> 6] &= ~(std::uint64_t{1} << (c & 63));
  }
  /// Any sharer bit set besides `self`?
  bool any_other_sharer(const Slice& s, std::size_t idx, CoreId self) const;
  /// Append every sharer except `self` to `out`, ascending core id.
  void collect_other_sharers(const Slice& s, std::size_t idx, CoreId self,
                             std::vector<CoreId>& out) const;

  BankId logical_bank_of(Addr line) const {
    return static_cast<BankId>((line >> line_shift_) & (cfg_.total_banks - 1));
  }
  void note_occupancy();

  CoherenceConfig cfg_;
  unsigned line_shift_;
  std::size_t words_;          ///< sharer words per entry
  std::vector<Slice> slices_;  ///< one per physical bank
  std::size_t entries_ = 0;    ///< occupied slots across all slices
  CoherenceStats stats_;
};

}  // namespace mot3d::coherence
