// Stacked-DRAM backend: vault interleaving, FR-FCFS row-hit-first service,
// deterministic refresh interference, thermal vault remapping and vault
// fault isolation — plus full-cluster differentials proving the backend is
// scheduler-bit-identical and that remapping cools a hot vault.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "cluster/cluster.hpp"
#include "dram3d/stacked_dram.hpp"
#include "dram3d/vault_remap.hpp"
#include "memory_test_doubles.hpp"
#include "workload/app_profile.hpp"

namespace mot3d::dram3d {
namespace {

// Two vaults x two banks, 64 B rows interleaved at 64 B so address math is
// easy to reason about: chunk = addr/64, vault = chunk%2, row = chunk/2,
// bank = row%2.  Refresh far away unless a test pulls it in.
Dram3dConfig small_cfg() {
  Dram3dConfig c;
  c.num_vaults = 2;
  c.banks_per_vault = 2;
  c.row_bytes = 64;
  c.vault_interleave_bytes = 64;
  c.link_cycles = 2;
  c.row_hit_cycles = 10;
  c.row_miss_cycles = 30;
  c.refresh_interval_cycles = 100'000;
  c.refresh_cycles = 50;
  return c;
}

void tick_until(StackedDram& d, Cycle last) {
  for (Cycle t = 0; t <= last; ++t) d.tick(t);
}

TEST(StackedDram, SingleReadIsLinkPlusRowMiss) {
  StackedDram d(small_cfg(), 4);
  RecordingSink sink;
  d.set_read_sink(&sink);
  d.read(0, 0, 0, 0);
  tick_until(d, 100);
  ASSERT_EQ(sink.done.size(), 1u);
  EXPECT_EQ(sink.done[0].at, 2u + 30u);  // link + row miss (cold bank)
  EXPECT_TRUE(d.idle());
  EXPECT_EQ(d.stats().reads, 1u);
  EXPECT_EQ(d.stats().page_misses, 1u);
  EXPECT_EQ(d.stats().page_hits, 0u);
}

TEST(StackedDram, OpenRowHitIsServedFaster) {
  StackedDram d(small_cfg(), 1);
  RecordingSink sink;
  d.set_read_sink(&sink);
  d.read(0, 0, 0, 0);
  d.read(0, 32, 0, 0);
  tick_until(d, 200);
  ASSERT_EQ(sink.done.size(), 2u);
  EXPECT_EQ(sink.done[0].at, 32u);        // miss
  EXPECT_EQ(sink.done[1].at, 32u + 12u);  // served at 32, link 2 + hit 10
  EXPECT_EQ(d.stats().page_hits, 1u);
  EXPECT_EQ(d.stats().page_misses, 1u);
}

TEST(StackedDram, FrFcfsServesRowHitBeforeOlderMiss) {
  // Same vault: A opens row 0; B (row 1) is older than C (row 0), but C
  // hits the open row and is granted first — FCFS only among misses.
  StackedDram d(small_cfg(), 1);
  RecordingSink sink;
  d.set_read_sink(&sink);
  d.read(0, 0, 0, 0);     // A: vault 0, row 0
  d.read(0, 128, 0, 0);   // B: vault 0, row 1
  d.read(0, 32, 0, 0);    // C: vault 0, row 0 again
  tick_until(d, 300);
  std::vector<Addr> order;
  for (const RecordingSink::Done& done : sink.done) order.push_back(done.addr);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<Addr>{0, 32, 128}));
  EXPECT_EQ(d.stats().page_hits, 1u);
}

TEST(StackedDram, VaultsServeInParallel) {
  StackedDram d(small_cfg(), 2);
  RecordingSink sink;
  d.set_read_sink(&sink);
  d.read(0, 0, 0, 0);
  d.read(1, 64, 0, 0);
  tick_until(d, 100);
  ASSERT_EQ(sink.done.size(), 2u);
  EXPECT_EQ(sink.done[0].at, 32u);  // both vaults grant at t=0: no serialisation
  EXPECT_EQ(sink.done[1].at, 32u);
  EXPECT_EQ(d.vault_stats()[0].reads, 1u);
  EXPECT_EQ(d.vault_stats()[1].reads, 1u);
}

TEST(StackedDram, RefreshIsDeterministicAndClosesRows) {
  Dram3dConfig cfg = small_cfg();
  cfg.num_vaults = 1;
  cfg.refresh_interval_cycles = 200;
  StackedDram d(cfg, 1);
  // Open row 0, let a refresh boundary pass, then re-touch the row: the
  // refresh closed it, so the second access must be a miss again.
  d.read(0, 0, 0, 0);
  tick_until(d, 250);
  EXPECT_EQ(d.total_refreshes(), 1u);  // the 200-cycle boundary fired once
  d.read(0, 32, 251, 0);
  for (Cycle t = 251; t <= 400; ++t) d.tick(t);
  EXPECT_EQ(d.stats().page_misses, 2u);
  EXPECT_EQ(d.stats().page_hits, 0u);
  // Energy: every access and refresh is charged.
  const double expected = 2.0 * cfg.energy_per_access_pj +
                          static_cast<double>(d.total_refreshes()) *
                              cfg.energy_per_refresh_pj;
  EXPECT_DOUBLE_EQ(d.stats().dynamic_energy_pj, expected);
}

TEST(StackedDram, NextEventLandsOnRefreshBoundary) {
  Dram3dConfig cfg = small_cfg();
  cfg.refresh_interval_cycles = 100;
  StackedDram d(cfg, 1);
  // Staggered boundaries: vault 0 at 50, vault 1 at 100; nothing queued.
  EXPECT_EQ(d.next_event(0), 50u);
  // An overdue boundary (vault 0's at 50, not yet ticked past) is an event
  // *now* — the scheduler must not skip over pending refresh work.
  EXPECT_EQ(d.next_event(60), 60u);
  // Once ticked past it, the next boundary is vault 1's at 100.
  tick_until(d, 60);
  EXPECT_EQ(d.next_event(60), 100u);
}

TEST(StackedDram, SwapPhysicalExchangesVaultTraffic) {
  StackedDram d(small_cfg(), 1);
  d.swap_physical(0, 1, 0);
  EXPECT_EQ(d.remap_count(), 1u);
  EXPECT_EQ(d.physical_vault(0), 1u);
  EXPECT_EQ(d.physical_vault(1), 0u);
  // Logical vault 0 traffic now lands on physical vault 1.
  d.read(0, 0, 0, 0);
  tick_until(d, 100);
  EXPECT_EQ(d.vault_stats()[1].reads, 1u);
  EXPECT_EQ(d.vault_stats()[0].reads, 0u);
  // Migration energy charged once, split across the pair.
  EXPECT_DOUBLE_EQ(d.vault_stats()[0].energy_pj,
                   small_cfg().remap_migration_pj / 2.0);
}

TEST(StackedDram, SwapValidatesArgumentsAndIdleness) {
  StackedDram d(small_cfg(), 1);
  EXPECT_THROW(d.swap_physical(0, 0, 0), std::invalid_argument);
  EXPECT_THROW(d.swap_physical(0, 9, 0), std::invalid_argument);
  d.read(0, 0, 0, 0);  // pending work: the backend is not drained
  EXPECT_THROW(d.swap_physical(0, 1, 0), std::logic_error);
}

TEST(StackedDram, FailVaultRemapsQueuedTraffic) {
  StackedDram d(small_cfg(), 1);
  RecordingSink sink;
  d.set_read_sink(&sink);
  d.read(0, 0, 0, 0);   // vault 0
  d.read(0, 64, 0, 0);  // vault 1
  std::string note;
  ASSERT_TRUE(d.fail_vault(0, 0, &note));
  EXPECT_NE(note.find("remapped onto vault 1"), std::string::npos);
  EXPECT_EQ(d.alive_vaults(), 1u);
  EXPECT_EQ(d.vault_fault_count(), 1u);
  tick_until(d, 300);
  EXPECT_EQ(sink.done.size(), 2u);  // the queued request migrated and completed
  EXPECT_TRUE(d.idle());
  // All traffic — including logical vault 0 — now serves from vault 1.
  d.read(0, 0, 301, 0);
  for (Cycle t = 301; t <= 400; ++t) d.tick(t);
  EXPECT_EQ(d.vault_stats()[1].reads, 3u);

  // A fault on a dead vault is benign; losing the last vault is not.
  EXPECT_TRUE(d.fail_vault(0, 400, &note));
  EXPECT_NE(note.find("benign"), std::string::npos);
  EXPECT_FALSE(d.fail_vault(1, 400, &note));
  EXPECT_NE(note.find("no remap target"), std::string::npos);
}

TEST(StackedDram, RejectsDegenerateConfigs) {
  Dram3dConfig cfg = small_cfg();
  cfg.num_vaults = 0;
  EXPECT_THROW(StackedDram(cfg, 1), std::invalid_argument);
  cfg = small_cfg();
  cfg.row_bytes = 0;
  EXPECT_THROW(StackedDram(cfg, 1), std::invalid_argument);
  EXPECT_THROW(StackedDram(small_cfg(), 0), std::invalid_argument);
}

// ---- vault remap policy ----------------------------------------------------

TEST(VaultRemapPolicy, HysteresisAndCooldownGateSwaps) {
  VaultRemapConfig cfg;
  cfg.enabled = true;
  cfg.too_hot_c = 70.0;
  cfg.min_delta_c = 3.0;
  cfg.cooldown_cycles = 1'000;
  VaultRemapPolicy policy(cfg);
  const std::vector<bool> alive{true, true, true};

  // Below threshold: nothing, even with a large spread.
  EXPECT_FALSE(policy.decide({60.0, 40.0, 50.0}, alive, 0).has_value());
  // Above threshold but inside the hysteresis band: nothing.
  EXPECT_FALSE(policy.decide({71.0, 69.0, 70.0}, alive, 0).has_value());
  // Hot with spread: hottest swaps with coolest.
  auto swap = policy.decide({75.0, 50.0, 60.0}, alive, 100);
  ASSERT_TRUE(swap.has_value());
  EXPECT_EQ(swap->hot, 0u);
  EXPECT_EQ(swap->cool, 1u);
  // Cooldown: an immediate re-trigger is suppressed, then allowed.
  EXPECT_FALSE(policy.decide({75.0, 50.0, 60.0}, alive, 500).has_value());
  EXPECT_TRUE(policy.decide({75.0, 50.0, 60.0}, alive, 1'200).has_value());
}

TEST(VaultRemapPolicy, DeadVaultsAreNeverCandidates) {
  VaultRemapConfig cfg;
  cfg.enabled = true;
  cfg.too_hot_c = 70.0;
  cfg.min_delta_c = 3.0;
  VaultRemapPolicy policy(cfg);
  // The hottest vault is dead and the coolest vault is dead: the policy
  // must pick among the alive pair only.
  auto swap = policy.decide({90.0, 75.0, 71.0, 40.0},
                            {false, true, true, false}, 0);
  ASSERT_TRUE(swap.has_value());
  EXPECT_EQ(swap->hot, 1u);
  EXPECT_EQ(swap->cool, 2u);
}

// ---- full-cluster integration ----------------------------------------------

cluster::ClusterConfig stacked_cfg(const char* app, double scale = 0.02) {
  cluster::ClusterConfig cfg = cluster::make_paper_config(
      workload::profile_by_name(app), cluster::Fabric::kMot,
      core::PowerState::full(), mem::DramPreset::kDdr3_200ns, scale, 42);
  cfg.stacked_dram = true;
  return cfg;
}

void expect_same_run(const cluster::SimResult& a, const cluster::SimResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.l2.hits, b.l2.hits);
  EXPECT_EQ(a.l2.misses, b.l2.misses);
  EXPECT_EQ(a.dram.reads, b.dram.reads);
  EXPECT_EQ(a.dram.writes, b.dram.writes);
  EXPECT_EQ(a.dram.page_hits, b.dram.page_hits);
  EXPECT_EQ(a.dram.page_misses, b.dram.page_misses);
  EXPECT_EQ(a.dram3d.enabled, b.dram3d.enabled);
  EXPECT_EQ(a.dram3d.refreshes, b.dram3d.refreshes);
  EXPECT_EQ(a.dram3d.remaps, b.dram3d.remaps);
  EXPECT_DOUBLE_EQ(a.energy.edp_energy_pj(), b.energy.edp_energy_pj());
}

TEST(StackedCluster, SchedulerBitIdentical) {
  cluster::ClusterConfig cfg = stacked_cfg("fft");
  cfg.scheduler = cluster::SchedulerMode::kEventDriven;
  const cluster::SimResult event = cluster::Cluster(cfg).run();
  cfg.scheduler = cluster::SchedulerMode::kDenseTick;
  const cluster::SimResult dense = cluster::Cluster(cfg).run();
  expect_same_run(event, dense);
  EXPECT_TRUE(event.dram3d.enabled);
  EXPECT_GT(event.dram3d.refreshes, 0u);
  EXPECT_GT(event.dram3d.row_hits + event.dram3d.row_misses, 0u);
}

TEST(StackedCluster, SchedulerBitIdenticalWithThermalRemap) {
  cluster::ClusterConfig cfg = stacked_cfg("ocean_contiguous");
  cfg.thermal.enabled = true;
  cfg.thermal.sample_interval_cycles = 2'000;
  cfg.vault_remap.enabled = true;
  cfg.vault_remap.too_hot_c = 46.0;  // just above ambient: swaps will fire
  cfg.vault_remap.min_delta_c = 0.05;
  cfg.vault_remap.cooldown_cycles = 4'000;
  cfg.dram3d.vault_interleave_bytes = 1u << 20;  // concentrate the heat
  cfg.scheduler = cluster::SchedulerMode::kEventDriven;
  const cluster::SimResult event = cluster::Cluster(cfg).run();
  cfg.scheduler = cluster::SchedulerMode::kDenseTick;
  const cluster::SimResult dense = cluster::Cluster(cfg).run();
  expect_same_run(event, dense);
  EXPECT_DOUBLE_EQ(event.dram3d.peak_vault_c, dense.dram3d.peak_vault_c);
  EXPECT_EQ(event.dram3d.peak_vault, dense.dram3d.peak_vault);
}

TEST(StackedCluster, HotVaultRemapReducesPeakVaultTemperature) {
  // Interleave at 1 MB so the working set concentrates on few vaults: one
  // vault runs hot.  With the remap policy armed just above ambient, the
  // hysteresis balancer must fire and spread the heat; without it the hot
  // vault integrates every access.
  cluster::ClusterConfig cfg = stacked_cfg("ocean_contiguous");
  cfg.thermal.enabled = true;
  cfg.thermal.sample_interval_cycles = 2'000;
  cfg.dram3d.vault_interleave_bytes = 1u << 20;
  cfg.vault_remap.too_hot_c = 46.0;
  cfg.vault_remap.min_delta_c = 0.05;
  cfg.vault_remap.cooldown_cycles = 4'000;

  cfg.vault_remap.enabled = false;
  const cluster::SimResult still = cluster::Cluster(cfg).run();
  cfg.vault_remap.enabled = true;
  const cluster::SimResult remapped = cluster::Cluster(cfg).run();

  EXPECT_EQ(still.dram3d.remaps, 0u);
  EXPECT_GE(remapped.dram3d.remaps, 1u);
  EXPECT_GT(still.dram3d.peak_vault_c, 0.0);
  EXPECT_LT(remapped.dram3d.peak_vault_c, still.dram3d.peak_vault_c);
}

TEST(StackedCluster, ObsRecordsPerVaultServiceDigests) {
  cluster::ClusterConfig cfg = stacked_cfg("fft");
  cfg.obs.metrics = true;
  const cluster::SimResult r = cluster::Cluster(cfg).run();
  ASSERT_TRUE(r.obs.enabled);
  ASSERT_EQ(r.obs.dram_vault_service.size(), cfg.dram3d.num_vaults);
  std::uint64_t vault_reads = 0;
  for (const auto& digest : r.obs.dram_vault_service) {
    vault_reads += digest.count;
  }
  // Every read completion was observed on exactly one vault.
  EXPECT_EQ(vault_reads, r.dram.reads);
  EXPECT_EQ(r.obs.dram_service.count, r.dram.reads);
}

}  // namespace
}  // namespace mot3d::dram3d
