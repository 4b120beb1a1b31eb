// Set-associative cache with true-LRU replacement and write-back /
// write-allocate policy.  Used for the private L1 I/D caches (Table I:
// 4 KB, 32 B line, 4-way, LRU) and for each stacked L2 SRAM bank (64 KB,
// 32 B line, 8-way).
//
// The cache stores *line identities* (full line address) as tags, so two
// lines that alias into the same bank after power-gating remap coexist and
// compete for ways — exactly the behaviour the paper relies on ("the old
// cache data ... will be removed by the cache replacement policy").
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace mot3d::mem {

/// Cache organisation.  `index_shift` selects which line-address bit the
/// set index starts at: 0 for a private L1; log2(total banks) for an L2
/// bank, whose low line bits are the (fixed) bank-interleave bits.
struct CacheConfig {
  std::size_t capacity_bytes = 4 * 1024;
  std::size_t line_bytes = 32;
  std::size_t associativity = 4;
  unsigned index_shift = 0;

  std::size_t num_lines() const { return capacity_bytes / line_bytes; }
  std::size_t num_sets() const { return num_lines() / associativity; }
};

/// Outcome of a lookup-and-touch.
struct LookupResult {
  bool hit = false;
  /// Write hit on a line held in Shared (read-only) state: the line was
  /// touched but NOT dirtied — the caller must win a coherence upgrade
  /// first (complete_upgrade()).  Never set in non-coherent runs, where no
  /// line is ever inserted shared.
  bool needs_upgrade = false;
};

/// Outcome of inserting a line after a refill.
struct InsertResult {
  bool evicted = false;        ///< a valid line was displaced
  bool evicted_dirty = false;  ///< ... and it was dirty (needs write-back)
  Addr evicted_line_addr = 0;  ///< full byte address of the displaced line
};

/// Aggregate counters.
struct CacheStats {
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;

  std::uint64_t accesses() const {
    return read_hits + read_misses + write_hits + write_misses;
  }
  std::uint64_t misses() const { return read_misses + write_misses; }
  double miss_rate() const {
    const auto a = accesses();
    return a == 0 ? 0.0 : static_cast<double>(misses()) / static_cast<double>(a);
  }
};

/// The cache proper.  Timing is modelled by the caller; this class is the
/// pure content/replacement state machine, which keeps it unit-testable.
class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  /// Look up `addr`; on hit, touches LRU and (for writes) sets dirty.
  /// Does NOT allocate on miss — the caller fetches the line and calls
  /// insert() when the refill arrives.
  LookupResult lookup(Addr addr, bool is_write);

  /// Non-destructive presence check (no LRU update, no stats).
  bool probe(Addr addr) const;

  /// Install the line containing `addr`, evicting the LRU way if the set
  /// is full.  `dirty` marks the new line dirty immediately (write-allocate
  /// for a store miss, or an L1 write-back landing in the L2).  `shared`
  /// installs the line in Shared (read-only MESI) state: stores report
  /// needs_upgrade until complete_upgrade() promotes it.
  InsertResult insert(Addr addr, bool dirty, bool shared = false);

  /// Room for the ways of `sets` touched sets in one allocation, for a
  /// warm-up about to fill that many (insert() would grow the pool by
  /// doubling).
  void reserve_sets(std::size_t sets) { ways_.reserve(sets * cfg_.associativity); }

  /// Coherence upgrade granted: promote the line to Modified (dirty,
  /// exclusive).  No-op if the line was invalidated while the upgrade was
  /// in flight; returns whether the line was present.
  bool complete_upgrade(Addr addr);

  /// MESI Shared bit of the line holding `addr` (false if absent).
  bool line_shared(Addr addr) const;

  /// Remove all lines; returns the full addresses of dirty lines in set
  /// order, then way order (the write-back set the reconfiguration manager
  /// posts to DRAM, in that order, before power-gating this bank).
  std::vector<Addr> flush();

  /// Invalidate a single line if present; returns whether it was dirty.
  std::optional<bool> invalidate(Addr addr);

  /// Number of currently valid lines: an L2 bank's share of a run's
  /// `l2_resident_lines`.  O(1): insert, invalidate and flush count them.
  std::size_t valid_lines() const { return valid_lines_; }
  /// Number of currently dirty lines (walks the touched sets).
  std::size_t dirty_lines() const;

  const CacheStats& stats() const { return stats_; }

 private:
  struct Way {
    Addr line = 0;       ///< full line-aligned byte address (identity tag)
    bool valid = false;
    bool dirty = false;
    bool shared = false; ///< MESI Shared: read-only until upgraded
    std::uint64_t lru = 0;  ///< larger == more recently used
  };

  Addr line_of(Addr addr) const { return addr & ~static_cast<Addr>(cfg_.line_bytes - 1); }
  std::size_t set_of(Addr line) const;
  /// First way of `set` in ways_, or nullptr while the set holds no line.
  Way* set_ways(std::size_t set);
  Way* find(Addr line);
  const Way* find(Addr line) const;

  CacheConfig cfg_;
  unsigned line_shift_;
  std::size_t set_mask_;  ///< num_sets() - 1: set_of() divides nothing
  /// Per set: 1 + its index among the touched sets, or 0 until a line is
  /// first installed there.  A run touches few of an L2 bank's sets, so
  /// the ways are allocated on first touch, not zero-filled up front.
  std::vector<std::uint32_t> set_slot_;
  std::vector<Way> ways_;      ///< associativity ways per touched set
  std::size_t valid_lines_ = 0;
  std::uint64_t lru_clock_ = 0;
  CacheStats stats_;
};

}  // namespace mot3d::mem
