#include "mem/cache.hpp"

#include <cassert>
#include <stdexcept>

namespace mot3d::mem {

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  if (!is_pow2(cfg.line_bytes) || !is_pow2(cfg.capacity_bytes)) {
    throw std::invalid_argument("cache geometry must be power of two");
  }
  if (cfg.associativity == 0 || cfg.num_lines() % cfg.associativity != 0) {
    throw std::invalid_argument("associativity must divide line count");
  }
  if (!is_pow2(cfg.num_sets())) {
    throw std::invalid_argument("set count must be a power of two");
  }
  line_shift_ = log2_exact(cfg.line_bytes);
  set_mask_ = cfg.num_sets() - 1;
  set_slot_.assign(cfg.num_sets(), 0);
}

std::size_t Cache::set_of(Addr line) const {
  const Addr line_id = line >> line_shift_;
  return static_cast<std::size_t>((line_id >> cfg_.index_shift) & set_mask_);
}

Cache::Way* Cache::set_ways(std::size_t set) {
  const std::uint32_t slot = set_slot_[set];
  return slot == 0 ? nullptr : &ways_[(slot - 1) * cfg_.associativity];
}

Cache::Way* Cache::find(Addr line) {
  Way* ways = set_ways(set_of(line));
  if (ways == nullptr) return nullptr;
  for (std::size_t i = 0; i < cfg_.associativity; ++i) {
    if (ways[i].valid && ways[i].line == line) return &ways[i];
  }
  return nullptr;
}

const Cache::Way* Cache::find(Addr line) const {
  return const_cast<Cache*>(this)->find(line);
}

LookupResult Cache::lookup(Addr addr, bool is_write) {
  const Addr line = line_of(addr);
  Way* w = find(line);
  if (w != nullptr) {
    w->lru = ++lru_clock_;
    // A store on a Shared line may not dirty it in place: the caller must
    // obtain an upgrade first.  Non-coherent runs never install shared
    // lines, so this branch is dead there and behaviour is unchanged.
    const bool needs_upgrade = is_write && w->shared;
    if (is_write && !w->shared) w->dirty = true;
    if (is_write) {
      ++stats_.write_hits;
    } else {
      ++stats_.read_hits;
    }
    return {.hit = true, .needs_upgrade = needs_upgrade};
  }
  if (is_write) {
    ++stats_.write_misses;
  } else {
    ++stats_.read_misses;
  }
  return {.hit = false};
}

bool Cache::probe(Addr addr) const { return find(line_of(addr)) != nullptr; }

InsertResult Cache::insert(Addr addr, bool dirty, bool shared) {
  const Addr line = line_of(addr);
  InsertResult result;
  if (Way* existing = find(line)) {
    // Refill raced with an earlier install (e.g. two L1s missing on the
    // same L2 line): just refresh.
    existing->lru = ++lru_clock_;
    existing->dirty = existing->dirty || dirty;
    existing->shared = shared && !existing->dirty;
    return result;
  }
  const std::size_t set = set_of(line);
  Way* ways = set_ways(set);
  if (ways == nullptr) {
    // First line in this set: allocate its ways, all invalid.
    set_slot_[set] =
        static_cast<std::uint32_t>(ways_.size() / cfg_.associativity + 1);
    ways_.resize(ways_.size() + cfg_.associativity);
    ways = &ways_[ways_.size() - cfg_.associativity];
  }
  Way* victim = nullptr;
  for (std::size_t i = 0; i < cfg_.associativity; ++i) {
    Way& w = ways[i];
    if (!w.valid) {
      victim = &w;
      break;
    }
    if (victim == nullptr || w.lru < victim->lru) victim = &w;
  }
  assert(victim != nullptr);
  if (victim->valid) {
    result.evicted = true;
    result.evicted_dirty = victim->dirty;
    result.evicted_line_addr = victim->line;
    ++stats_.evictions;
    if (victim->dirty) ++stats_.dirty_evictions;
  } else {
    ++valid_lines_;
  }
  victim->line = line;
  victim->valid = true;
  victim->dirty = dirty;
  victim->shared = shared && !dirty;  // Shared is read-only by invariant
  victim->lru = ++lru_clock_;
  return result;
}

bool Cache::complete_upgrade(Addr addr) {
  Way* w = find(line_of(addr));
  if (w == nullptr) return false;
  w->shared = false;
  w->dirty = true;
  return true;
}

bool Cache::line_shared(Addr addr) const {
  const Way* w = find(line_of(addr));
  return w != nullptr && w->shared;
}

std::vector<Addr> Cache::flush() {
  // Set order, then way order, whatever order the sets were touched in:
  // core::reconfigure posts the write-backs to DRAM in this order.
  std::vector<Addr> dirty;
  for (std::size_t set = 0; set < set_slot_.size(); ++set) {
    Way* ways = set_ways(set);
    if (ways == nullptr) continue;
    for (std::size_t i = 0; i < cfg_.associativity; ++i) {
      Way& w = ways[i];
      if (w.valid && w.dirty) dirty.push_back(w.line);
      w.valid = false;
      w.dirty = false;
      w.shared = false;
    }
  }
  valid_lines_ = 0;
  return dirty;
}

std::optional<bool> Cache::invalidate(Addr addr) {
  Way* w = find(line_of(addr));
  if (w == nullptr) return std::nullopt;
  const bool was_dirty = w->dirty;
  w->valid = false;
  w->dirty = false;
  w->shared = false;
  --valid_lines_;
  return was_dirty;
}

std::size_t Cache::dirty_lines() const {
  std::size_t n = 0;
  for (const Way& w : ways_) n += (w.valid && w.dirty) ? 1 : 0;
  return n;
}

}  // namespace mot3d::mem
