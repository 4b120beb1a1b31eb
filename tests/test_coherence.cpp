// Coherence subsystem tests: the directory-MESI state machine in
// isolation, the end-to-end invalidation traffic of the sharing-pattern
// workloads, the zero-traffic guarantee for private-only streams, and the
// directory-vs-bank-gating migration protocol.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "coherence/directory.hpp"
#include "core/reconfig.hpp"

namespace mot3d {
namespace {

using coherence::CoherenceConfig;
using coherence::CoherenceDirectory;
using coherence::DirOutcome;

MemRequest req(CoreId core, Addr line, ReqKind kind) {
  return MemRequest{.id = 0,
                    .core = core,
                    .bank = static_cast<BankId>((line >> 5) & 31),
                    .addr = line,
                    .is_write = kind == ReqKind::kWriteback,
                    .issue_cycle = 0,
                    .kind = kind};
}

CoherenceConfig small_dir_cfg() {
  CoherenceConfig cc;
  cc.total_cores = 4;
  cc.total_banks = 8;
  cc.line_bytes = 32;
  return cc;
}

// ---- directory state machine ----------------------------------------------

TEST(CoherenceDirectory, FirstReaderGetsExclusiveSilently) {
  CoherenceDirectory dir(small_dir_cfg());
  const DirOutcome out = dir.on_request(req(0, 0x1000, ReqKind::kGetS), 0);
  EXPECT_TRUE(out.invalidate.empty());
  EXPECT_FALSE(out.install_shared);
  EXPECT_FALSE(out.upgrade_ack);
  EXPECT_EQ(dir.occupancy(), 1u);
  EXPECT_EQ(dir.stats().sharing_misses, 0u);
}

TEST(CoherenceDirectory, ReadConflictSharesTheLineAndLaterReadersJoinFree) {
  CoherenceDirectory dir(small_dir_cfg());
  (void)dir.on_request(req(0, 0x1000, ReqKind::kGetS), 0);
  // Reader 1 finds core 0 owning (E/M indistinguishable): the owner is
  // forward-invalidated and the line turns Shared{1}.
  const DirOutcome r1 = dir.on_request(req(1, 0x1000, ReqKind::kGetS), 0);
  ASSERT_EQ(r1.invalidate.size(), 1u);
  EXPECT_EQ(r1.invalidate[0], 0u);
  EXPECT_TRUE(r1.install_shared);
  // Further readers join the sharer set with no coherence traffic.
  const DirOutcome r2 = dir.on_request(req(2, 0x1000, ReqKind::kGetS), 0);
  EXPECT_TRUE(r2.invalidate.empty());
  EXPECT_TRUE(r2.install_shared);
  const DirOutcome r0 = dir.on_request(req(0, 0x1000, ReqKind::kGetS), 0);
  EXPECT_TRUE(r0.invalidate.empty());
  EXPECT_TRUE(r0.install_shared);
  EXPECT_EQ(dir.stats().invalidations, 1u);
  EXPECT_EQ(dir.stats().sharing_misses, 3u);
}

TEST(CoherenceDirectory, StoreInvalidatesEverySharer) {
  CoherenceDirectory dir(small_dir_cfg());
  // Build a 3-wide sharer set {0,1,2}.
  (void)dir.on_request(req(0, 0x2000, ReqKind::kGetS), 0);  // E{0}
  (void)dir.on_request(req(1, 0x2000, ReqKind::kGetS), 0);  // S{1}, inval 0
  (void)dir.on_request(req(0, 0x2000, ReqKind::kGetS), 0);  // S{0,1}
  (void)dir.on_request(req(2, 0x2000, ReqKind::kGetS), 0);  // S{0,1,2}
  const DirOutcome wr = dir.on_request(req(3, 0x2000, ReqKind::kGetX), 0);
  ASSERT_EQ(wr.invalidate.size(), 3u);
  EXPECT_EQ(wr.invalidate[0], 0u);
  EXPECT_EQ(wr.invalidate[1], 1u);
  EXPECT_EQ(wr.invalidate[2], 2u);
  EXPECT_FALSE(wr.install_shared);
  // A second store by the new owner is silent (E/M in place).
  const DirOutcome again = dir.on_request(req(3, 0x2000, ReqKind::kGetX), 0);
  EXPECT_TRUE(again.invalidate.empty());
}

TEST(CoherenceDirectory, UpgradeFromSoleSharerIsFree) {
  CoherenceDirectory dir(small_dir_cfg());
  // Writeback from the owner drops the entry; a re-read re-creates it.
  (void)dir.on_request(req(0, 0x3000, ReqKind::kGetS), 0);
  (void)dir.on_request(req(0, 0x3000, ReqKind::kWriteback), 0);
  EXPECT_EQ(dir.occupancy(), 0u);
  (void)dir.on_request(req(0, 0x3000, ReqKind::kGetS), 0);
  const DirOutcome up = dir.on_request(req(0, 0x3000, ReqKind::kUpgrade), 0);
  EXPECT_TRUE(up.upgrade_ack);
  EXPECT_TRUE(up.invalidate.empty());
  EXPECT_EQ(dir.stats().upgrades, 1u);
}

TEST(CoherenceDirectory, UpgradeFromInvalidatedSharerDegeneratesToGetX) {
  CoherenceDirectory dir(small_dir_cfg());
  (void)dir.on_request(req(0, 0x4000, ReqKind::kGetS), 0);
  // Core 1 steals the line (invalidates 0) before 0's upgrade arrives.
  (void)dir.on_request(req(1, 0x4000, ReqKind::kGetX), 0);
  const DirOutcome up = dir.on_request(req(0, 0x4000, ReqKind::kUpgrade), 0);
  EXPECT_FALSE(up.upgrade_ack) << "must answer with data, not a bare grant";
  ASSERT_EQ(up.invalidate.size(), 1u);
  EXPECT_EQ(up.invalidate[0], 1u);
}

TEST(CoherenceDirectory, AckCountersDistinguishCleanAndDirty) {
  CoherenceDirectory dir(small_dir_cfg());
  dir.on_ack(req(2, 0x5000, ReqKind::kInvAck));
  dir.on_ack(req(3, 0x5000, ReqKind::kDataForward));
  dir.on_ack(req(1, 0x5000, ReqKind::kDataForward));
  EXPECT_EQ(dir.stats().inv_acks, 1u);
  EXPECT_EQ(dir.stats().data_forwards, 2u);
}

TEST(CoherenceDirectory, RemapMigratesEntriesBetweenSlices) {
  CoherenceConfig cc = small_dir_cfg();
  CoherenceDirectory dir(cc);
  // Lines 0x1000*k map to logical banks (line >> 5) & 7; place a few.
  for (Addr line : {Addr{0x20}, Addr{0x40}, Addr{0x60}, Addr{0x80}}) {
    (void)dir.on_request(req(0, line, ReqKind::kGetS),
                         static_cast<BankId>((line >> 5) & 7));
  }
  const std::size_t before = dir.occupancy();
  // Fold all 8 logical banks onto physical banks {2,3} (centre group).
  dir.remap([](BankId logical) { return static_cast<BankId>(2 + (logical & 1)); });
  EXPECT_EQ(dir.occupancy(), before) << "migration must not lose entries";
  for (BankId b : {0u, 1u, 4u, 5u, 6u, 7u}) {
    EXPECT_EQ(dir.slice_entries(b), 0u) << "entry left on a gated bank " << b;
  }
  EXPECT_EQ(dir.slice_entries(2) + dir.slice_entries(3), before);
  EXPECT_GT(dir.stats().dir_migrations, 0u);
}

// ---- L1 MESI shared-bit mechanics -------------------------------------------

TEST(CoherenceL1, SharedLinesUpgradeBeforeDirtying) {
  mem::Cache l1(mem::CacheConfig{});
  l1.insert(0x1000, /*dirty=*/false, /*shared=*/true);
  ASSERT_TRUE(l1.line_shared(0x1000));

  // Reads hit normally; a store hits but may not dirty the line in place.
  EXPECT_TRUE(l1.lookup(0x1000, /*is_write=*/false).hit);
  const mem::LookupResult store = l1.lookup(0x1000, /*is_write=*/true);
  EXPECT_TRUE(store.hit);
  EXPECT_TRUE(store.needs_upgrade);
  EXPECT_EQ(l1.dirty_lines(), 0u);
  EXPECT_TRUE(l1.line_shared(0x1000));

  // The upgrade grant promotes Shared -> Modified.
  EXPECT_TRUE(l1.complete_upgrade(0x1000));
  EXPECT_FALSE(l1.line_shared(0x1000));
  EXPECT_EQ(l1.dirty_lines(), 1u);
  EXPECT_FALSE(l1.lookup(0x1000, /*is_write=*/true).needs_upgrade);

  // Invalidation clears the shared bit with the line; an upgrade for a
  // vanished line reports failure (the core refetches with data).
  EXPECT_TRUE(l1.invalidate(0x1000).has_value());
  EXPECT_FALSE(l1.line_shared(0x1000));
  EXPECT_FALSE(l1.complete_upgrade(0x1000));

  // Exclusive installs never need an upgrade (silent E -> M).
  l1.insert(0x2000, /*dirty=*/false, /*shared=*/false);
  EXPECT_FALSE(l1.line_shared(0x2000));
  EXPECT_FALSE(l1.lookup(0x2000, /*is_write=*/true).needs_upgrade);
  EXPECT_EQ(l1.dirty_lines(), 1u);
}

// ---- end-to-end cluster runs ------------------------------------------------

cluster::ClusterConfig sharing_cfg(const char* app, cluster::Fabric fabric,
                                   const core::PowerState& state,
                                   cluster::SchedulerMode sched =
                                       cluster::SchedulerMode::kEventDriven) {
  cluster::ClusterConfig cfg = cluster::make_paper_config(
      workload::profile_by_name(app), fabric, state,
      mem::DramPreset::kDdr3_200ns, /*scale=*/0.02, /*seed=*/42);
  cfg.scheduler = sched;
  return cfg;
}

TEST(CoherenceCluster, ProducerConsumerGeneratesInvalidationTraffic) {
  const cluster::SimResult r =
      cluster::Cluster(sharing_cfg("producer_consumer", cluster::Fabric::kMot,
                                   core::PowerState::full()))
          .run();
  ASSERT_TRUE(r.coherence_enabled);
  EXPECT_GT(r.coherence.invalidations, 0u);
  EXPECT_GT(r.coherence.data_forwards, 0u);
  EXPECT_GT(r.coherence.sharing_misses, 0u);
  EXPECT_GT(r.coherence.dir_peak_entries, 0u);
  // Every invalidation is acknowledged exactly once, clean or dirty.
  EXPECT_EQ(r.coherence.invalidations,
            r.coherence.inv_acks + r.coherence.data_forwards);
  // Core counters agree with the directory's.
  std::uint64_t recv = 0, fwd = 0;
  for (const cpu::CoreStats& c : r.cores) {
    recv += c.invalidations_received;
    fwd += c.coherence_forwards;
  }
  EXPECT_EQ(recv, r.coherence.invalidations);
  EXPECT_EQ(fwd, r.coherence.data_forwards);
}

TEST(CoherenceCluster, UpgradesAppearForReadMostlySharing) {
  const cluster::SimResult r =
      cluster::Cluster(sharing_cfg("read_mostly", cluster::Fabric::kMot,
                                   core::PowerState::full()))
          .run();
  ASSERT_TRUE(r.coherence_enabled);
  // Stores into a widely read table hit Shared lines: upgrade path.
  EXPECT_GT(r.coherence.upgrades, 0u);
  EXPECT_GT(r.coherence.invalidations, 0u);
}

TEST(CoherenceCluster, PurelyPrivateSharingWorkloadStaysSilent) {
  // A coherent profile whose references never leave the per-core private
  // regions: the directory is engaged but must see zero sharing.
  workload::AppProfile app = workload::profile_by_name("producer_consumer");
  app.name = "private_only";
  app.shared_fraction = 0.0;
  cluster::ClusterConfig cfg = cluster::make_paper_config(
      app, cluster::Fabric::kMot, core::PowerState::full(),
      mem::DramPreset::kDdr3_200ns, 0.02, 42);
  const cluster::SimResult r = cluster::Cluster(cfg).run();
  ASSERT_TRUE(r.coherence_enabled);
  EXPECT_EQ(r.coherence.invalidations, 0u);
  EXPECT_EQ(r.coherence.upgrades, 0u);
  EXPECT_EQ(r.coherence.data_forwards, 0u);
  EXPECT_EQ(r.coherence.sharing_misses, 0u);
  EXPECT_GT(r.coherence.dir_accesses, 0u) << "directory was not engaged";
}

TEST(CoherenceCluster, NonSharingProfilesLeaveCoherenceDetached) {
  const cluster::SimResult r =
      cluster::Cluster(sharing_cfg("fft", cluster::Fabric::kMot,
                                   core::PowerState::full()))
          .run();
  EXPECT_FALSE(r.coherence_enabled);
  EXPECT_EQ(r.coherence.invalidations, 0u);
  EXPECT_EQ(r.coh_dir_entries, 0u);
}

TEST(CoherenceCluster, SharingRunsWorkOnNocAndGatedMot) {
  const cluster::SimResult noc =
      cluster::Cluster(sharing_cfg("all_to_all", cluster::Fabric::kTrueMesh3d,
                                   core::PowerState::full()))
          .run();
  EXPECT_GT(noc.coherence.invalidations, 0u);

  const cluster::SimResult gated =
      cluster::Cluster(sharing_cfg("migratory", cluster::Fabric::kMot,
                                   core::PowerState::pc16_mb8()))
          .run();
  EXPECT_GT(gated.coherence.invalidations, 0u);
  EXPECT_GT(gated.coherence.data_forwards, 0u) << "migratory must forward dirty";
}

// Directory <-> bank-gating interaction through the full core::reconfigure
// protocol: drain, flush, ctr reprogram, directory re-slice.
TEST(CoherenceCluster, ReconfigMigratesDirectoryOntoSurvivingBanks) {
  const phys::TechnologyParams tech = phys::default_technology();
  const phys::FloorplanParams fp;
  const cacti::SramBankConfig bank_cfg;
  const core::MotTimingModel timing(tech, fp, bank_cfg);
  core::MotInterconnect mot(timing, core::PowerState::full());
  mem::DramConfig dram_cfg;
  mem::DramBackend dram(dram_cfg, 33);
  mem::L2Config l2_cfg;
  mem::L2System l2(l2_cfg, dram);
  coherence::CoherenceDirectory dir(coherence::CoherenceConfig{});
  l2.attach_directory(&dir);

  // Track lines covering every logical bank from two cores.
  for (BankId b = 0; b < 32; ++b) {
    const Addr line = 0x8000'0000 + static_cast<Addr>(b) * 32;
    (void)dir.on_request(req(0, line, ReqKind::kGetS), mot.route(b));
    (void)dir.on_request(req(1, line + 32 * 32, ReqKind::kGetS), mot.route(b));
  }
  const std::size_t before = dir.occupancy();
  ASSERT_EQ(before, 64u);

  const core::ReconfigCost cost =
      core::reconfigure(mot, l2, dram, &dir, core::PowerState::pc16_mb8(), 0);
  EXPECT_GT(cost.dir_entries_migrated, 0u);
  EXPECT_EQ(dir.occupancy(), before);
  for (BankId b = 0; b < 32; ++b) {
    if (!core::PowerState::pc16_mb8().bank_active(b)) {
      EXPECT_EQ(dir.slice_entries(b), 0u) << "entries stranded on gated bank " << b;
    }
  }
  // Round trip back to Full re-slices again without losing state.
  (void)core::reconfigure(mot, l2, dram, &dir, core::PowerState::full(), 100);
  EXPECT_EQ(dir.occupancy(), before);
}

}  // namespace
}  // namespace mot3d
