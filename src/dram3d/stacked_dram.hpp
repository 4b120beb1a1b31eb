// 3-D stacked-DRAM backend: vault-parallel organisation in the spirit of
// in-package memory stacks (HMC-style vaults, arXiv 1709.07529), replacing
// the single constant-latency controller of mem::DramBackend.
//
// Model:
//   * The address space is interleaved across `num_vaults` vaults in
//     `vault_interleave_bytes` chunks; a logical->physical vault map
//     supports thermal remapping and fault isolation.
//   * Each vault has one controller: a request queue served FR-FCFS
//     (first ready row hit wins, else the oldest request), `banks_per_vault`
//     banks with open-row state (kNoOpenPage when closed), and a serial
//     service port (`busy_until`).
//   * Refresh is deterministic interference: every vault blocks for
//     `refresh_cycles` at staggered `refresh_interval_cycles` boundaries.
//     Boundaries are exposed through next_event(), so the event-driven
//     scheduler lands on the exact cycles the dense scheduler walks through
//     — refresh counts and timings are scheduler-bit-identical.
//
// Everything is computed from model quantities only (no wall clock, no
// RNG): given the same request stream, both schedulers observe identical
// grants, completions, refreshes, and energy.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "mem/memory_backend.hpp"

namespace mot3d::dram3d {

struct Dram3dConfig {
  std::size_t num_vaults = 8;
  std::size_t banks_per_vault = 8;
  std::size_t row_bytes = 2048;              ///< open-row granularity
  std::size_t vault_interleave_bytes = 256;  ///< chunk spread across vaults
  unsigned link_cycles = 2;        ///< TSV link serialisation per access
  unsigned row_hit_cycles = 18;    ///< CAS-only access on an open row
  unsigned row_miss_cycles = 42;   ///< precharge+activate+CAS (Weis-style 3-D)
  unsigned refresh_interval_cycles = 3'900;  ///< per-vault boundary spacing
  unsigned refresh_cycles = 120;   ///< vault blocked per refresh burst
  double energy_per_access_pj = 2600.0;   ///< cheaper than off-chip DDR3
  double energy_per_refresh_pj = 900.0;
  double remap_migration_pj = 4000.0;     ///< charged per executed swap
};

/// Per-physical-vault counters (thermal sources, obs probes).
struct VaultStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t refreshes = 0;
  double energy_pj = 0.0;
};

/// What a run reports about its stacked-DRAM trajectory (SimResult).
/// `enabled == false` (the constant-latency backend) keeps every dram3d_*
/// scenario-JSON field absent, so legacy goldens stay byte-identical.
struct Dram3dSummary {
  bool enabled = false;
  std::size_t vaults = 0;
  std::size_t alive_vaults = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t remaps = 0;        ///< executed thermal swaps
  std::uint64_t vault_faults = 0;  ///< kVaultFail events absorbed by remap
  bool remap_enabled = false;
  double peak_vault_c = 0.0;       ///< 0 when the run had no thermal model
  std::size_t peak_vault = 0;      ///< physical vault holding the peak
};

/// Vault-parallel stacked-DRAM controller bank behind MemoryBackend.
class StackedDram final : public mem::MemoryBackend {
 public:
  StackedDram(const Dram3dConfig& cfg, std::size_t num_requesters);

  void tick(Cycle now) override;
  Cycle next_event(Cycle now) const override;

  /// One TSV link transfer per line, serialised on the vault port.
  Cycle flush_line_cycles() const override { return cfg_.link_cycles; }

  // ---- stacked-specific surface --------------------------------------------

  std::size_t num_vaults() const { return cfg_.num_vaults; }
  std::size_t alive_vaults() const { return alive_count_; }
  bool vault_alive(std::size_t phys) const { return alive_.at(phys); }
  std::size_t physical_vault(std::size_t logical) const {
    return map_.at(logical);
  }
  const std::vector<VaultStats>& vault_stats() const { return vault_stats_; }
  std::uint64_t total_refreshes() const;
  std::uint64_t remap_count() const { return remap_count_; }
  std::uint64_t vault_fault_count() const { return vault_fault_count_; }

  /// Thermal remap: exchange the logical assignments of two physical
  /// vaults.  Must be called drained (idle()); charges migration energy.
  void swap_physical(std::size_t hot, std::size_t cool, Cycle now);

  /// Vault hard fault: kill `phys` and remap its logical vaults onto the
  /// least-loaded survivor; queued requests migrate in order.  Returns
  /// false (and explains in `note`) when no recovery is possible — the
  /// last alive vault died.  A fault on an already-dead vault is benign.
  bool fail_vault(std::size_t phys, Cycle now, std::string* note);

  /// Per-vault service latencies: `per_vault[v]` records the reads served
  /// by physical vault v (one histogram per vault); null (default) = off.
  void set_vault_service_histograms(obs::LatencyHistogram* per_vault) {
    vault_hist_ = per_vault;
  }

 private:
  struct Vault {
    std::deque<Txn> queue;
    std::vector<Addr> open_rows;  ///< per bank; kNoOpenPage = closed
    Cycle busy_until = 0;
    Cycle next_refresh = 0;
  };

  std::size_t logical_vault(Addr addr) const {
    return (addr / cfg_.vault_interleave_bytes) % cfg_.num_vaults;
  }
  Addr row_of(Addr addr) const {
    const Addr chunk = addr / cfg_.vault_interleave_bytes;
    const Addr local = chunk / cfg_.num_vaults;
    return (local * cfg_.vault_interleave_bytes) / cfg_.row_bytes;
  }
  void enqueue(const Txn& txn) override;
  void run_refresh(std::size_t v, Cycle now);
  void serve_vault(std::size_t v, Cycle now);

  Dram3dConfig cfg_;
  std::size_t num_requesters_;
  std::vector<Vault> vaults_;
  std::vector<std::size_t> map_;  ///< logical -> physical vault
  std::vector<bool> alive_;
  std::size_t alive_count_;
  std::vector<VaultStats> vault_stats_;
  std::uint64_t remap_count_ = 0;
  std::uint64_t vault_fault_count_ = 0;
  obs::LatencyHistogram* vault_hist_ = nullptr;
};

}  // namespace mot3d::dram3d
