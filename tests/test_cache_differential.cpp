// Differential test: the production Cache against an obviously-correct
// reference model (std::list-based true LRU with full-address tags) under
// long randomized access/insert/invalidate/flush sequences, across
// geometries.
// This is the strongest correctness net for the component every timing
// result in the repo stands on.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "mem/cache.hpp"

namespace mot3d::mem {
namespace {

/// Reference: per-set std::list, most-recent at front.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& cfg) : cfg_(cfg) {}

  bool lookup(Addr addr, bool is_write) {
    const Addr line = line_of(addr);
    auto& set = sets_[set_of(line)];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (it->line == line) {
        Entry e = *it;
        e.dirty = e.dirty || is_write;
        set.erase(it);
        set.push_front(e);
        return true;
      }
    }
    return false;
  }

  // Returns evicted (line, dirty) if any.
  std::optional<std::pair<Addr, bool>> insert(Addr addr, bool dirty) {
    const Addr line = line_of(addr);
    auto& set = sets_[set_of(line)];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (it->line == line) {
        Entry e = *it;
        e.dirty = e.dirty || dirty;
        set.erase(it);
        set.push_front(e);
        return std::nullopt;
      }
    }
    std::optional<std::pair<Addr, bool>> evicted;
    if (set.size() == cfg_.associativity) {
      evicted = {set.back().line, set.back().dirty};
      set.pop_back();
    }
    set.push_front(Entry{line, dirty});
    return evicted;
  }

  // Returns whether the removed line was dirty, or nullopt if absent.
  std::optional<bool> invalidate(Addr addr) {
    const Addr line = line_of(addr);
    auto& set = sets_[set_of(line)];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (it->line == line) {
        const bool dirty = it->dirty;
        set.erase(it);
        return dirty;
      }
    }
    return std::nullopt;
  }

  std::vector<Addr> flush() {
    std::vector<Addr> dirty;
    for (auto& [idx, set] : sets_) {
      for (const Entry& e : set) {
        if (e.dirty) dirty.push_back(e.line);
      }
    }
    sets_.clear();
    std::sort(dirty.begin(), dirty.end());
    return dirty;
  }

  std::size_t valid_lines() const {
    std::size_t n = 0;
    for (const auto& [idx, set] : sets_) n += set.size();
    return n;
  }

  std::size_t dirty_lines() const {
    std::size_t n = 0;
    for (const auto& [idx, set] : sets_) {
      for (const Entry& e : set) n += e.dirty ? 1 : 0;
    }
    return n;
  }

 private:
  struct Entry {
    Addr line;
    bool dirty;
  };
  Addr line_of(Addr a) const { return a & ~static_cast<Addr>(cfg_.line_bytes - 1); }
  std::size_t set_of(Addr line) const {
    return static_cast<std::size_t>(
        ((line >> log2_exact(cfg_.line_bytes)) >> cfg_.index_shift) &
        (cfg_.num_sets() - 1));
  }
  CacheConfig cfg_;
  std::map<std::size_t, std::list<Entry>> sets_;
};

struct Geometry {
  std::size_t capacity, line, ways;
  unsigned shift;
};

class CacheDifferential : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheDifferential, RandomisedAgreement) {
  const Geometry g = GetParam();
  const CacheConfig cfg{.capacity_bytes = g.capacity,
                        .line_bytes = g.line,
                        .associativity = g.ways,
                        .index_shift = g.shift};
  Cache dut(cfg);
  ReferenceCache ref(cfg);
  Rng rng(0xC0FFEE ^ g.capacity ^ (g.ways << 8));

  // Address pool sized to create real eviction pressure.
  const Addr pool = static_cast<Addr>(g.capacity) * 3;

  for (int step = 0; step < 20000; ++step) {
    const Addr addr = rng.next_below(pool);
    const int op = static_cast<int>(rng.next_below(100));
    if (op < 55) {
      // lookup (reads and writes)
      const bool w = rng.next_bool(0.3);
      ASSERT_EQ(dut.lookup(addr, w).hit, ref.lookup(addr, w)) << "step " << step;
    } else if (op < 90) {
      // miss-refill insert
      const bool dirty = rng.next_bool(0.25);
      const InsertResult di = dut.insert(addr, dirty);
      const auto ri = ref.insert(addr, dirty);
      ASSERT_EQ(di.evicted, ri.has_value()) << "step " << step;
      if (ri.has_value()) {
        ASSERT_EQ(di.evicted_line_addr, ri->first) << "step " << step;
        ASSERT_EQ(di.evicted_dirty, ri->second) << "step " << step;
      }
    } else if (op < 97) {
      // single-line invalidation (the coherence path)
      ASSERT_EQ(dut.invalidate(addr), ref.invalidate(addr)) << "step " << step;
    } else {
      // occasional full flush (the power-gating path)
      std::vector<Addr> dd = dut.flush();
      std::sort(dd.begin(), dd.end());
      ASSERT_EQ(dd, ref.flush()) << "step " << step;
    }
    // The live-line count is kept by insert/invalidate/flush, not walked.
    ASSERT_EQ(dut.valid_lines(), ref.valid_lines()) << "step " << step;
    ASSERT_EQ(dut.dirty_lines(), ref.dirty_lines()) << "step " << step;
  }
}

// ---- directed eviction / write-back cases ----------------------------------
// The randomized differential proves DUT == reference; these pin the
// *intended* semantics directly, so a bug shared with the reference model
// cannot hide.

TEST(CacheDirected, TrueLruEvictionOrderWithTouches) {
  // 8 sets; addresses k * 256 all land in set 0 (line 32 B, 4-way).
  const CacheConfig cfg{.capacity_bytes = 1024,
                        .line_bytes = 32,
                        .associativity = 4,
                        .index_shift = 0};
  Cache cache(cfg);
  auto addr = [](Addr k) { return k * 256; };

  for (Addr k = 0; k < 4; ++k) {
    const InsertResult r = cache.insert(addr(k), false);
    EXPECT_FALSE(r.evicted) << k;
  }
  // Touch A0: recency becomes A0, A3, A2, A1.
  EXPECT_TRUE(cache.lookup(addr(0), false).hit);

  // A4 must displace the true LRU, A1 — not the oldest-inserted A0.
  const InsertResult e1 = cache.insert(addr(4), false);
  ASSERT_TRUE(e1.evicted);
  EXPECT_EQ(e1.evicted_line_addr, addr(1));
  EXPECT_FALSE(e1.evicted_dirty);

  // Dirty A2 via a write hit; recency: A2, A4, A0, A3.
  EXPECT_TRUE(cache.lookup(addr(2), true).hit);

  // Three more inserts evict A3, A0, A4 (all clean) in LRU order...
  for (Addr k = 5; k < 8; ++k) {
    const InsertResult r = cache.insert(addr(k), false);
    ASSERT_TRUE(r.evicted) << k;
    EXPECT_FALSE(r.evicted_dirty) << k;
  }
  // ...so the next eviction is the dirty A2, and it must demand write-back.
  const InsertResult e2 = cache.insert(addr(8), false);
  ASSERT_TRUE(e2.evicted);
  EXPECT_EQ(e2.evicted_line_addr, addr(2));
  EXPECT_TRUE(e2.evicted_dirty);
  EXPECT_EQ(cache.stats().dirty_evictions, 1u);
}

TEST(CacheDirected, FlushReturnsExactlyTheDirtyLines) {
  const CacheConfig cfg{.capacity_bytes = 4 * 1024,
                        .line_bytes = 32,
                        .associativity = 4,
                        .index_shift = 0};
  Cache cache(cfg);
  std::vector<Addr> dirty_expected;
  for (Addr k = 0; k < 32; ++k) {
    const bool dirty = (k % 3) == 0;
    cache.insert(k * 32, dirty);
    if (dirty) dirty_expected.push_back(k * 32);
  }
  std::vector<Addr> flushed = cache.flush();
  std::sort(flushed.begin(), flushed.end());
  EXPECT_EQ(flushed, dirty_expected);
  EXPECT_EQ(cache.valid_lines(), 0u);
  EXPECT_EQ(cache.dirty_lines(), 0u);
  // A flushed cache misses everything it previously held.
  for (Addr k = 0; k < 32; ++k) EXPECT_FALSE(cache.probe(k * 32)) << k;
}

TEST(CacheDirected, FlushReturnsSetOrderThenWayOrder) {
  // 8 sets x 4 ways; line(s, k) is the k-th line of set s.
  // core::reconfigure posts flushed lines to DRAM in the order flush()
  // returns them, so the order is pinned: set order, then way order — not
  // the order the sets or lines were filled in.
  const CacheConfig cfg{.capacity_bytes = 1024,
                        .line_bytes = 32,
                        .associativity = 4,
                        .index_shift = 0};
  Cache cache(cfg);
  auto line = [](Addr set, Addr k) { return (k * 8 + set) * 32; };

  cache.insert(line(5, 0), true);
  cache.insert(line(5, 1), false);
  cache.insert(line(5, 2), true);
  cache.insert(line(2, 0), true);
  cache.insert(line(2, 1), true);
  cache.insert(line(2, 2), true);
  // Free way 0 of set 2; the next line of that set takes it.
  EXPECT_EQ(cache.invalidate(line(2, 0)), std::optional<bool>(true));
  cache.insert(line(2, 3), true);
  cache.insert(line(7, 0), true);
  cache.insert(line(0, 0), false);
  EXPECT_EQ(cache.dirty_lines(), 6u);

  EXPECT_EQ(cache.flush(),
            (std::vector<Addr>{line(2, 3), line(2, 1), line(2, 2), line(5, 0),
                               line(5, 2), line(7, 0)}));
  EXPECT_EQ(cache.valid_lines(), 0u);
  EXPECT_EQ(cache.dirty_lines(), 0u);
}

TEST(CacheDirected, InsertingDirtyOverCleanUpgradesAndSticks) {
  const CacheConfig cfg{.capacity_bytes = 1024,
                        .line_bytes = 32,
                        .associativity = 4,
                        .index_shift = 0};
  Cache cache(cfg);
  cache.insert(0, false);
  EXPECT_EQ(cache.dirty_lines(), 0u);
  // An L1 write-back landing on a resident clean line marks it dirty.
  cache.insert(0, true);
  EXPECT_EQ(cache.dirty_lines(), 1u);
  EXPECT_EQ(cache.valid_lines(), 1u);
  // A later clean re-insert must not wash the dirty bit out.
  cache.insert(0, false);
  EXPECT_EQ(cache.dirty_lines(), 1u);
}

// ---- multi-bank interleave (the L2's organisation) -------------------------
// The stacked L2 is 32 banks with the low log2(banks) line-address bits as
// the (fixed) bank index and index_shift = 5 stripping them from each
// bank's set index.  These tests drive a 32-bank ensemble exactly the way
// L2System routes lines, against one reference model per bank.

struct BankEnsemble {
  static constexpr std::size_t kBanks = 32;
  static constexpr std::size_t kLine = 32;

  explicit BankEnsemble(std::size_t bank_capacity) {
    const CacheConfig cfg{.capacity_bytes = bank_capacity,
                          .line_bytes = kLine,
                          .associativity = 8,
                          .index_shift = 5};  // log2(kBanks)
    for (std::size_t b = 0; b < kBanks; ++b) {
      duts.emplace_back(cfg);
      refs.emplace_back(cfg);
    }
  }

  static std::size_t bank_of(Addr addr) { return (addr / kLine) % kBanks; }

  std::vector<Cache> duts;
  std::vector<ReferenceCache> refs;
};

TEST(CacheMultiBank, SequentialLinesInterleaveUniformly) {
  BankEnsemble e(64 * 1024);
  const std::size_t lines = 32 * 128;
  for (Addr i = 0; i < lines; ++i) {
    const Addr addr = i * BankEnsemble::kLine;
    e.duts[BankEnsemble::bank_of(addr)].insert(addr, false);
  }
  for (std::size_t b = 0; b < BankEnsemble::kBanks; ++b) {
    EXPECT_EQ(e.duts[b].valid_lines(), 128u) << "bank " << b;
  }
  // Each line lives only in its home bank — never aliased elsewhere.
  for (Addr i = 0; i < lines; i += 37) {
    const Addr addr = i * BankEnsemble::kLine;
    for (std::size_t b = 0; b < BankEnsemble::kBanks; ++b) {
      EXPECT_EQ(e.duts[b].probe(addr), b == BankEnsemble::bank_of(addr))
          << "line " << i << " bank " << b;
    }
  }
}

TEST(CacheMultiBank, RandomisedEnsembleAgreementAndIsolation) {
  // Small banks (2 KB) so random traffic creates real per-bank eviction
  // pressure; a set-index bug that mixes bank bits into the set (or vice
  // versa) diverges from the per-bank reference immediately.
  BankEnsemble e(2 * 1024);
  Rng rng(0xBA2C);
  const Addr pool = 32 * 2 * 1024 * 3;

  for (int step = 0; step < 30000; ++step) {
    const Addr addr = rng.next_below(pool) & ~static_cast<Addr>(31);
    const std::size_t b = BankEnsemble::bank_of(addr);
    const int op = static_cast<int>(rng.next_below(100));
    if (op < 50) {
      const bool w = rng.next_bool(0.3);
      ASSERT_EQ(e.duts[b].lookup(addr, w).hit, e.refs[b].lookup(addr, w))
          << "step " << step << " bank " << b;
    } else if (op < 97) {
      const bool dirty = rng.next_bool(0.25);
      const InsertResult di = e.duts[b].insert(addr, dirty);
      const auto ri = e.refs[b].insert(addr, dirty);
      ASSERT_EQ(di.evicted, ri.has_value()) << "step " << step << " bank " << b;
      if (ri.has_value()) {
        ASSERT_EQ(di.evicted_line_addr, ri->first) << "step " << step;
        ASSERT_EQ(di.evicted_dirty, ri->second) << "step " << step;
        // An eviction never crosses banks: the victim belongs here too.
        ASSERT_EQ(BankEnsemble::bank_of(di.evicted_line_addr), b) << "step " << step;
      }
    } else {
      // Flush one bank (the power-gating path) — neighbours keep their state.
      std::vector<Addr> dd = e.duts[b].flush();
      std::sort(dd.begin(), dd.end());
      ASSERT_EQ(dd, e.refs[b].flush()) << "step " << step << " bank " << b;
    }
  }
  for (std::size_t b = 0; b < BankEnsemble::kBanks; ++b) {
    EXPECT_EQ(e.duts[b].valid_lines(), e.refs[b].valid_lines()) << "bank " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Values(Geometry{4 * 1024, 32, 4, 0},    // the paper's L1
                      Geometry{64 * 1024, 32, 8, 5},   // the paper's L2 bank
                      Geometry{1024, 32, 1, 0},        // direct-mapped corner
                      Geometry{2048, 64, 16, 0},       // fully assoc-ish, big lines
                      Geometry{8 * 1024, 16, 2, 3}),   // small lines, shifted index
    [](const auto& info) {
      return "cap" + std::to_string(info.param.capacity) + "w" +
             std::to_string(info.param.ways) + "s" + std::to_string(info.param.shift);
    });

}  // namespace
}  // namespace mot3d::mem
