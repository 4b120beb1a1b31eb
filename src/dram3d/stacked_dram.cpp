#include "dram3d/stacked_dram.hpp"

#include <algorithm>
#include <stdexcept>

namespace mot3d::dram3d {

StackedDram::StackedDram(const Dram3dConfig& cfg, std::size_t num_requesters)
    : cfg_(cfg),
      num_requesters_(num_requesters),
      vaults_(cfg.num_vaults),
      map_(cfg.num_vaults),
      alive_(cfg.num_vaults, true),
      alive_count_(cfg.num_vaults),
      vault_stats_(cfg.num_vaults) {
  if (num_requesters == 0) throw std::invalid_argument("need >= 1 requester");
  if (cfg_.num_vaults == 0) throw std::invalid_argument("need >= 1 vault");
  if (cfg_.banks_per_vault == 0) throw std::invalid_argument("need >= 1 bank");
  if (cfg_.vault_interleave_bytes == 0 || cfg_.row_bytes == 0) {
    throw std::invalid_argument("interleave and row granularity must be > 0");
  }
  for (std::size_t v = 0; v < cfg_.num_vaults; ++v) {
    map_[v] = v;
    vaults_[v].open_rows.assign(cfg_.banks_per_vault, kNoOpenPage);
    // Stagger refresh boundaries so vaults never refresh in lock-step;
    // vault 0 lands at interval/num_vaults, the last at one full interval.
    vaults_[v].next_refresh =
        (static_cast<Cycle>(v + 1) * cfg_.refresh_interval_cycles) /
        cfg_.num_vaults;
  }
}

void StackedDram::enqueue(const Txn& txn) {
  if (txn.requester >= num_requesters_) {
    throw std::out_of_range("stacked-DRAM requester out of range");
  }
  vaults_[map_[logical_vault(txn.addr)]].queue.push_back(txn);
  ++pending_count_;
}

void StackedDram::run_refresh(std::size_t v, Cycle now) {
  Vault& vault = vaults_[v];
  while (now >= vault.next_refresh) {
    // The refresh burst claims the vault port at its exact boundary (or as
    // soon as the in-progress access releases it) and closes every row.
    vault.busy_until =
        std::max(vault.busy_until, vault.next_refresh) + cfg_.refresh_cycles;
    std::fill(vault.open_rows.begin(), vault.open_rows.end(), kNoOpenPage);
    ++vault_stats_[v].refreshes;
    vault_stats_[v].energy_pj += cfg_.energy_per_refresh_pj;
    stats_.dynamic_energy_pj += cfg_.energy_per_refresh_pj;
    vault.next_refresh += cfg_.refresh_interval_cycles;
  }
}

void StackedDram::serve_vault(std::size_t v, Cycle now) {
  Vault& vault = vaults_[v];
  if (vault.busy_until > now || vault.queue.empty()) return;
  if (vault.queue.front().enqueued > now) return;  // arrival order per vault

  // FR-FCFS: the oldest ready row hit wins; with no open-row match the
  // oldest ready request is served (plain FCFS among misses).
  std::size_t pick = 0;
  bool pick_is_hit = false;
  for (std::size_t i = 0; i < vault.queue.size(); ++i) {
    const Txn& t = vault.queue[i];
    if (t.enqueued > now) break;  // queue is in arrival order
    const Addr row = row_of(t.addr);
    const std::size_t bank = row % cfg_.banks_per_vault;
    if (vault.open_rows[bank] == row) {
      pick = i;
      pick_is_hit = true;
      break;
    }
  }

  const Txn txn = vault.queue[pick];
  vault.queue.erase(vault.queue.begin() +
                    static_cast<std::ptrdiff_t>(pick));
  --pending_count_;

  const Addr row = row_of(txn.addr);
  const std::size_t bank = row % cfg_.banks_per_vault;
  vault.open_rows[bank] = row;

  stats_.total_wait_cycles += now - txn.enqueued;
  const Cycle start = now + cfg_.link_cycles;
  const Cycle done =
      start + (pick_is_hit ? cfg_.row_hit_cycles : cfg_.row_miss_cycles);
  vault.busy_until = done;

  VaultStats& vs = vault_stats_[v];
  if (pick_is_hit) {
    ++stats_.page_hits;
    ++vs.row_hits;
  } else {
    ++stats_.page_misses;
    ++vs.row_misses;
  }
  stats_.dynamic_energy_pj += cfg_.energy_per_access_pj;
  vs.energy_pj += cfg_.energy_per_access_pj;

  if (txn.is_write) {
    ++stats_.writes;
    ++vs.writes;
    // Posted: occupies the vault port only.
  } else {
    ++stats_.reads;
    ++vs.reads;
    const Cycle latency = schedule_read(txn, done);
    if (vault_hist_ != nullptr) vault_hist_[v].record(latency);
  }
}

void StackedDram::tick(Cycle now) {
  complete_due(now);
  for (std::size_t v = 0; v < vaults_.size(); ++v) {
    if (!alive_[v]) continue;
    run_refresh(v, now);
    serve_vault(v, now);
  }
}

Cycle StackedDram::next_event(Cycle now) const {
  Cycle next = next_completion(now);
  for (std::size_t v = 0; v < vaults_.size(); ++v) {
    if (!alive_[v]) continue;
    const Vault& vault = vaults_[v];
    // Refresh boundaries are model events: both schedulers must land on
    // them exactly, or refresh timing (and thus energy) would diverge.
    next = std::min(next, std::max(vault.next_refresh, now));
    if (!vault.queue.empty()) {
      next = std::min(next, std::max({vault.busy_until,
                                      vault.queue.front().enqueued, now}));
    }
    if (next <= now) return now;
  }
  return next;
}

std::uint64_t StackedDram::total_refreshes() const {
  std::uint64_t sum = 0;
  for (const VaultStats& vs : vault_stats_) sum += vs.refreshes;
  return sum;
}

void StackedDram::swap_physical(std::size_t hot, std::size_t cool,
                                Cycle /*now*/) {
  if (hot >= cfg_.num_vaults || cool >= cfg_.num_vaults || hot == cool) {
    throw std::invalid_argument("bad vault swap");
  }
  if (!idle()) throw std::logic_error("vault swap requires a drained backend");
  if (!alive_[hot] || !alive_[cool]) {
    throw std::logic_error("vault swap across a dead vault");
  }
  for (std::size_t l = 0; l < map_.size(); ++l) {
    if (map_[l] == hot) {
      map_[l] = cool;
    } else if (map_[l] == cool) {
      map_[l] = hot;
    }
  }
  // Migration cost: the drained working set crosses the TSV links once.
  stats_.dynamic_energy_pj += cfg_.remap_migration_pj;
  vault_stats_[hot].energy_pj += cfg_.remap_migration_pj / 2.0;
  vault_stats_[cool].energy_pj += cfg_.remap_migration_pj / 2.0;
  ++remap_count_;
}

bool StackedDram::fail_vault(std::size_t phys, Cycle /*now*/,
                             std::string* note) {
  if (phys >= cfg_.num_vaults) {
    if (note) *note = "vault index out of range";
    return false;
  }
  if (!alive_[phys]) {
    if (note) *note = "vault already dead: benign";
    return true;
  }
  if (alive_count_ <= 1) {
    if (note) *note = "last alive vault failed: no remap target";
    return false;
  }
  alive_[phys] = false;
  --alive_count_;
  ++vault_fault_count_;

  // Least-loaded survivor (queued requests; tie -> lowest index).
  std::size_t target = cfg_.num_vaults;
  for (std::size_t v = 0; v < cfg_.num_vaults; ++v) {
    if (!alive_[v]) continue;
    if (target == cfg_.num_vaults ||
        vaults_[v].queue.size() < vaults_[target].queue.size()) {
      target = v;
    }
  }
  for (std::size_t l = 0; l < map_.size(); ++l) {
    if (map_[l] == phys) map_[l] = target;
  }
  // Queued requests migrate in arrival order; in-flight reads already left
  // the arrays and complete normally.  Note: migrated requests keep their
  // enqueue cycle, but the target queue must stay sorted by arrival for
  // the FR-FCFS ready-window scan — merge, then stable-sort by enqueue.
  Vault& dead = vaults_[phys];
  Vault& tgt = vaults_[target];
  for (Txn& t : dead.queue) tgt.queue.push_back(std::move(t));
  std::stable_sort(tgt.queue.begin(), tgt.queue.end(),
                   [](const Txn& a, const Txn& b) {
                     return a.enqueued < b.enqueued;
                   });
  dead.queue.clear();
  std::fill(dead.open_rows.begin(), dead.open_rows.end(), kNoOpenPage);

  if (note) {
    *note = "vault " + std::to_string(phys) + " remapped onto vault " +
            std::to_string(target);
  }
  return true;
}

}  // namespace mot3d::dram3d
