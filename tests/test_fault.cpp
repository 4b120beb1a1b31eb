// Fault subsystem: deterministic schedules, the graceful-degradation
// policy, full-cluster differentials under injected faults (both
// schedulers must agree bit-for-bit), structured unrecoverable outcomes,
// and the watchdog's no-progress detector fed by a directed coherence
// wedge (a dropped invalidation whose ack never returns).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "fault/degradation.hpp"
#include "fault/fault_schedule.hpp"
#include "fault/watchdog.hpp"
#include "workload/app_profile.hpp"

namespace mot3d::fault {
namespace {

// ---- fault schedule determinism --------------------------------------------

FaultConfig rate_config(double tsv, double bank, std::uint64_t seed) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.tsv_fault_rate = tsv;
  cfg.bank_fault_rate = bank;
  cfg.seed = seed;
  return cfg;
}

TEST(FaultSchedule, SameSeedSameTraceEveryConstruction) {
  const FaultConfig cfg = rate_config(2.0, 1.0, 99);
  const FaultSchedule a(cfg, /*mot=*/true, 32, 0);
  const FaultSchedule b(cfg, /*mot=*/true, 32, 0);
  EXPECT_EQ(a.events(), b.events());

  // Rates are expected events per 10k cycles over the 20k-cycle horizon.
  ASSERT_EQ(a.events().size(), 6u);  // 4 degrades + 2 hard faults
  Cycle prev = 0;
  for (const FaultEvent& ev : a.events()) {
    EXPECT_GE(ev.cycle, prev);  // sorted
    EXPECT_GE(ev.cycle, 1u);
    EXPECT_LE(ev.cycle, kFaultHorizonCycles);
    EXPECT_LT(ev.target, 32u);
    prev = ev.cycle;
  }
}

TEST(FaultSchedule, DifferentSeedDifferentTrace) {
  const FaultSchedule a(rate_config(2.0, 1.0, 1), true, 32, 0);
  const FaultSchedule b(rate_config(2.0, 1.0, 2), true, 32, 0);
  EXPECT_NE(a.events(), b.events());
}

TEST(FaultSchedule, FabricSelectsFaultFlavours) {
  // MoT draws TSV degrades and alternates hard faults between a dead TSV
  // column and a dead bank array.
  const FaultSchedule mot(rate_config(2.0, 1.0, 7), true, 32, 0);
  for (const FaultEvent& ev : mot.events()) {
    EXPECT_TRUE(ev.kind == FaultKind::kTsvDegrade ||
                ev.kind == FaultKind::kTsvFail || ev.kind == FaultKind::kBankFail)
        << fault_kind_name(ev.kind);
  }
  // A packet fabric with routers degrades links instead.
  const FaultSchedule mesh(rate_config(2.0, 0.0, 7), false, 32, 48);
  ASSERT_EQ(mesh.events().size(), 4u);
  for (const FaultEvent& ev : mesh.events()) {
    EXPECT_EQ(ev.kind, FaultKind::kLinkDegrade);
    EXPECT_LT(ev.target, 48u);
  }
}

TEST(FaultSchedule, ZeroRatesNoEventsAndExplicitEventsPassThrough) {
  FaultConfig cfg = rate_config(0.0, 0.0, 5);
  EXPECT_TRUE(FaultSchedule(cfg, true, 32, 0).events().empty());

  cfg.events = {{500, FaultKind::kDropInvalidate, 0, 2},
                {100, FaultKind::kTsvDegrade, 3, 0}};
  const FaultSchedule sched(cfg, true, 32, 0);
  ASSERT_EQ(sched.events().size(), 2u);  // explicit events, sorted by cycle
  EXPECT_EQ(sched.events()[0].cycle, 100u);
  EXPECT_EQ(sched.events()[1].kind, FaultKind::kDropInvalidate);
}

// ---- degradation policy ----------------------------------------------------

TEST(DegradationManager, GateTargetCentreFoldsUntilFaultExcluded) {
  const DegradationManager mot(/*mot_fabric=*/true);
  // Bank 0 sits outside the 16-bank centre group (8..23): one halving.
  auto t = mot.gate_target(core::PowerState::full(), 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->name(), "PC16-MB16");
  EXPECT_EQ(t->active_banks(), 16u);
  EXPECT_FALSE(t->bank_active(0));

  // Bank 8 survives MB16 but not MB8 (12..19): halve again from there.
  t = mot.gate_target(*t, 8);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->name(), "PC16-MB8");
  EXPECT_FALSE(t->bank_active(8));

  // Bank 15 lives inside the minimum centre group: nothing excludes it.
  EXPECT_FALSE(mot.gate_target(core::PowerState::full(), 15).has_value());
  EXPECT_FALSE(mot.gate_target(core::PowerState::pc16_mb8(), 15).has_value());
}

TEST(DegradationManager, ReactMapsEveryFaultKind) {
  const DegradationManager mot(true);
  const core::PowerState full = core::PowerState::full();

  DegradeAction act = mot.react({100, FaultKind::kTsvDegrade, 5, 0}, full);
  EXPECT_EQ(act.kind, DegradeActionKind::kDegradeMotBank);
  EXPECT_EQ(act.penalty_cycles, 2u);  // zero magnitude -> the default penalty
  act = mot.react({100, FaultKind::kTsvDegrade, 5, 9}, full);
  EXPECT_EQ(act.penalty_cycles, 9u);

  act = mot.react({200, FaultKind::kBankFail, 0, 0}, full);
  EXPECT_EQ(act.kind, DegradeActionKind::kGateBanks);
  ASSERT_TRUE(act.target.has_value());
  EXPECT_EQ(act.target->name(), "PC16-MB16");

  // An already-gated bank hard-faulting is benign.
  act = mot.react({200, FaultKind::kBankFail, 0, 0}, core::PowerState::pc16_mb8());
  EXPECT_EQ(act.kind, DegradeActionKind::kNone);

  // Inside the minimum centre group there is no gating escape.
  act = mot.react({200, FaultKind::kTsvFail, 15, 0}, full);
  EXPECT_EQ(act.kind, DegradeActionKind::kUnrecoverable);
  EXPECT_NE(act.note.find("minimum centre group"), std::string::npos);

  // Packet fabrics have no reconfiguration path at all.
  const DegradationManager mesh(false);
  act = mesh.react({200, FaultKind::kBankFail, 0, 0}, full);
  EXPECT_EQ(act.kind, DegradeActionKind::kUnrecoverable);
  EXPECT_NE(act.note.find("no reconfiguration path"), std::string::npos);
  act = mesh.react({200, FaultKind::kRouterFail, 3, 0}, full);
  EXPECT_EQ(act.kind, DegradeActionKind::kUnrecoverable);
  act = mesh.react({300, FaultKind::kLinkDegrade, 3, 0}, full);
  EXPECT_EQ(act.kind, DegradeActionKind::kThrottleRouter);
}

// ---- watchdog unit behaviour -----------------------------------------------

TEST(Watchdog, StallVerdictAfterConsecutiveFrozenChecks) {
  WatchdogConfig cfg;
  cfg.enabled = true;
  cfg.check_interval_cycles = 100;
  cfg.stall_checks = 3;
  Watchdog w(cfg);
  EXPECT_EQ(w.next_check_cycle(), 100u);

  EXPECT_EQ(w.poll(99, 5), WatchdogVerdict::kOk);    // before the boundary
  EXPECT_EQ(w.poll(100, 5), WatchdogVerdict::kOk);   // records the baseline
  EXPECT_EQ(w.next_check_cycle(), 200u);
  EXPECT_EQ(w.poll(200, 5), WatchdogVerdict::kOk);   // frozen x1
  EXPECT_EQ(w.poll(300, 5), WatchdogVerdict::kOk);   // frozen x2
  EXPECT_EQ(w.poll(400, 5), WatchdogVerdict::kStalled);

  // Any forward progress resets the stall counter.
  Watchdog w2(cfg);
  EXPECT_EQ(w2.poll(100, 5), WatchdogVerdict::kOk);
  EXPECT_EQ(w2.poll(200, 5), WatchdogVerdict::kOk);
  EXPECT_EQ(w2.poll(300, 6), WatchdogVerdict::kOk);  // progress
  EXPECT_EQ(w2.poll(400, 6), WatchdogVerdict::kOk);
  EXPECT_EQ(w2.poll(500, 6), WatchdogVerdict::kOk);
  EXPECT_EQ(w2.poll(600, 6), WatchdogVerdict::kStalled);
}

TEST(Watchdog, TinyWallDeadlineFiresAtFirstBoundary) {
  WatchdogConfig cfg;
  cfg.enabled = true;
  cfg.wall_deadline_seconds = 1e-9;
  cfg.deadline_check_interval_cycles = 16;
  Watchdog w(cfg);
  EXPECT_EQ(w.next_check_cycle(), 16u);
  EXPECT_EQ(w.poll(16, 1), WatchdogVerdict::kDeadlineExceeded);
}

// ---- full-cluster integration ----------------------------------------------

cluster::ClusterConfig paper_cfg(const char* app, cluster::Fabric fabric,
                                 double scale = 0.02) {
  return cluster::make_paper_config(workload::profile_by_name(app), fabric,
                                    core::PowerState::full(),
                                    mem::DramPreset::kDdr3_200ns, scale, 42);
}

void expect_same_run(const cluster::SimResult& a, const cluster::SimResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.l2.hits, b.l2.hits);
  EXPECT_EQ(a.l2.misses, b.l2.misses);
  EXPECT_EQ(a.dram.reads, b.dram.reads);
  EXPECT_EQ(a.dram.writes, b.dram.writes);
  EXPECT_DOUBLE_EQ(a.energy.edp_energy_pj(), b.energy.edp_energy_pj());
  EXPECT_EQ(a.fault.enabled, b.fault.enabled);
  EXPECT_EQ(a.fault.outcome, b.fault.outcome);
  EXPECT_EQ(a.fault.injected, b.fault.injected);
  EXPECT_EQ(a.fault.recovered, b.fault.recovered);
  EXPECT_EQ(a.fault.unrecoverable, b.fault.unrecoverable);
  EXPECT_EQ(a.fault.bank_gate_events, b.fault.bank_gate_events);
  EXPECT_EQ(a.fault.degraded_cycles, b.fault.degraded_cycles);
  EXPECT_DOUBLE_EQ(a.fault.repair_energy_pj, b.fault.repair_energy_pj);
  EXPECT_EQ(a.fault.fail_reason, b.fault.fail_reason);
}

TEST(FaultCluster, SchedulersAgreeBitForBitUnderSeededFaults) {
  const FaultEnvelope env{true, 1.0, 0.5, 101};
  for (cluster::Fabric fabric :
       {cluster::Fabric::kMot, cluster::Fabric::kTrueMesh3d}) {
    cluster::ClusterConfig cfg = paper_cfg("fft", fabric);
    cfg.fault = FaultConfig::from_envelope(env);

    cfg.scheduler = cluster::SchedulerMode::kEventDriven;
    const cluster::SimResult event = cluster::Cluster(cfg).run();
    cfg.scheduler = cluster::SchedulerMode::kDenseTick;
    const cluster::SimResult dense = cluster::Cluster(cfg).run();

    EXPECT_TRUE(event.fault.enabled);
    expect_same_run(event, dense);
  }
}

TEST(FaultCluster, EmptyScheduleIsByteIdenticalToFaultFreeRun) {
  // Enabling the subsystem with nothing to inject must not perturb the
  // model: the watchdog and the fault poll only split event-horizon skips.
  cluster::ClusterConfig cfg = paper_cfg("fft", cluster::Fabric::kMot);
  const cluster::SimResult off = cluster::Cluster(cfg).run();
  cfg.fault.enabled = true;  // zero rates, no explicit events
  const cluster::SimResult on = cluster::Cluster(cfg).run();
  EXPECT_EQ(off.cycles, on.cycles);
  EXPECT_EQ(off.instructions, on.instructions);
  EXPECT_EQ(off.l2.hits, on.l2.hits);
  EXPECT_EQ(off.dram.reads, on.dram.reads);
  EXPECT_DOUBLE_EQ(off.energy.edp_energy_pj(), on.energy.edp_energy_pj());
  EXPECT_FALSE(off.fault.enabled);
  EXPECT_TRUE(on.fault.enabled);
  EXPECT_EQ(on.fault.outcome, "ok");
  EXPECT_EQ(on.fault.injected, 0u);
}

TEST(FaultCluster, MotGatesAroundHardBankFault) {
  cluster::ClusterConfig cfg = paper_cfg("fft", cluster::Fabric::kMot);
  cfg.fault.enabled = true;
  cfg.fault.events = {{200, FaultKind::kBankFail, 0, 0}};
  const cluster::SimResult r = cluster::Cluster(cfg).run();
  EXPECT_EQ(r.fault.outcome, "degraded");
  EXPECT_EQ(r.fault.injected, 1u);
  EXPECT_EQ(r.fault.recovered, 1u);
  EXPECT_EQ(r.fault.bank_gate_events, 1u);
  EXPECT_EQ(r.fault.unrecoverable, 0u);
  EXPECT_GT(r.fault.degraded_cycles, 0u);
  EXPECT_GT(r.fault.repair_energy_pj, 0.0);
  EXPECT_GT(r.instructions, 0u);  // the run completed on the folded tree
}

TEST(FaultCluster, TsvDegradeIsAbsorbedWithRetryEnergy) {
  cluster::ClusterConfig cfg = paper_cfg("fft", cluster::Fabric::kMot);
  cfg.fault.enabled = true;
  cfg.fault.events = {{100, FaultKind::kTsvDegrade, 0, 0}};
  const cluster::SimResult degraded = cluster::Cluster(cfg).run();
  EXPECT_EQ(degraded.fault.outcome, "degraded");
  EXPECT_EQ(degraded.fault.recovered, 1u);
  EXPECT_EQ(degraded.fault.bank_gate_events, 0u);
  EXPECT_GT(degraded.fault.repair_energy_pj, 0.0);

  // The marginal via costs latency: the degraded run is never faster.
  cfg.fault.events.clear();
  const cluster::SimResult clean = cluster::Cluster(cfg).run();
  EXPECT_GE(degraded.cycles, clean.cycles);
}

TEST(FaultCluster, CentreGroupFaultEndsWithStructuredFailure) {
  // Bank 15 sits inside the MB8 minimum centre group: no fold excludes it,
  // so even the MoT must end the run early with a structured outcome.
  for (cluster::SchedulerMode mode : {cluster::SchedulerMode::kEventDriven,
                                      cluster::SchedulerMode::kDenseTick}) {
    cluster::ClusterConfig cfg = paper_cfg("fft", cluster::Fabric::kMot);
    cfg.scheduler = mode;
    cfg.fault.enabled = true;
    cfg.fault.events = {{300, FaultKind::kBankFail, 15, 0}};
    const cluster::SimResult r = cluster::Cluster(cfg).run();
    EXPECT_EQ(r.fault.outcome, "failed");
    EXPECT_EQ(r.fault.unrecoverable, 1u);
    EXPECT_NE(r.fault.fail_reason.find("minimum centre group"), std::string::npos)
        << r.fault.fail_reason;
    EXPECT_LE(r.cycles, 301u);  // ended at the fault, not at app completion
  }
}

TEST(FaultCluster, PacketMeshFailsStructuredOnHardFault) {
  cluster::ClusterConfig cfg = paper_cfg("fft", cluster::Fabric::kTrueMesh3d);
  cfg.fault.enabled = true;
  cfg.fault.events = {{300, FaultKind::kBankFail, 4, 0}};
  const cluster::SimResult r = cluster::Cluster(cfg).run();
  EXPECT_EQ(r.fault.outcome, "failed");
  EXPECT_NE(r.fault.fail_reason.find("no reconfiguration path"), std::string::npos)
      << r.fault.fail_reason;
}

// ---- stacked-DRAM vault faults ---------------------------------------------

TEST(DegradationManager, VaultFaultNeedsAStackedBackend) {
  // Constant-latency backend (num_vaults == 0): nothing to remap onto.
  const DegradationManager flat(true, /*num_vaults=*/0);
  DegradeAction act =
      flat.react({100, FaultKind::kVaultFail, 3, 0}, core::PowerState::full());
  EXPECT_EQ(act.kind, DegradeActionKind::kUnrecoverable);
  EXPECT_NE(act.note.find("no stacked-DRAM backend"), std::string::npos);

  // Stacked backend present: route to the vault remap machinery.
  const DegradationManager stacked(true, /*num_vaults=*/8);
  act = stacked.react({100, FaultKind::kVaultFail, 3, 0}, core::PowerState::full());
  EXPECT_EQ(act.kind, DegradeActionKind::kFailVault);
  EXPECT_EQ(act.unit, 3u);
}

TEST(FaultCluster, VaultFaultRemapsOntoSurvivorsAndDegrades) {
  for (cluster::SchedulerMode mode : {cluster::SchedulerMode::kEventDriven,
                                      cluster::SchedulerMode::kDenseTick}) {
    cluster::ClusterConfig cfg = paper_cfg("fft", cluster::Fabric::kMot);
    cfg.scheduler = mode;
    cfg.stacked_dram = true;
    cfg.fault.enabled = true;
    cfg.fault.events = {{500, FaultKind::kVaultFail, 2, 0}};
    const cluster::SimResult r = cluster::Cluster(cfg).run();
    EXPECT_EQ(r.fault.outcome, "degraded");
    EXPECT_EQ(r.fault.injected, 1u);
    EXPECT_EQ(r.fault.recovered, 1u);
    EXPECT_EQ(r.fault.unrecoverable, 0u);
    EXPECT_GT(r.fault.repair_energy_pj, 0.0);
    EXPECT_TRUE(r.dram3d.enabled);
    EXPECT_EQ(r.dram3d.vault_faults, 1u);
    EXPECT_EQ(r.dram3d.alive_vaults, r.dram3d.vaults - 1);
    EXPECT_GT(r.instructions, 0u);  // the run completed on surviving vaults
  }
}

TEST(FaultCluster, VaultFaultOnConstantBackendFailsStructured) {
  cluster::ClusterConfig cfg = paper_cfg("fft", cluster::Fabric::kMot);
  cfg.fault.enabled = true;
  cfg.fault.events = {{500, FaultKind::kVaultFail, 2, 0}};
  const cluster::SimResult r = cluster::Cluster(cfg).run();
  EXPECT_EQ(r.fault.outcome, "failed");
  EXPECT_EQ(r.fault.unrecoverable, 1u);
  EXPECT_NE(r.fault.fail_reason.find("no stacked-DRAM backend"),
            std::string::npos)
      << r.fault.fail_reason;
  EXPECT_LE(r.cycles, 501u);  // ended at the fault, not at app completion
}

TEST(FaultCluster, LastAliveVaultFaultFailsStructured) {
  cluster::ClusterConfig cfg = paper_cfg("fft", cluster::Fabric::kMot);
  cfg.stacked_dram = true;
  cfg.dram3d.num_vaults = 2;
  cfg.fault.enabled = true;
  cfg.fault.events = {{300, FaultKind::kVaultFail, 0, 0},
                      {600, FaultKind::kVaultFail, 1, 0}};
  const cluster::SimResult r = cluster::Cluster(cfg).run();
  // The first fault remaps onto the survivor; the second has no target.
  EXPECT_EQ(r.fault.outcome, "failed");
  EXPECT_EQ(r.fault.recovered, 1u);
  EXPECT_EQ(r.fault.unrecoverable, 1u);
  EXPECT_NE(r.fault.fail_reason.find("last alive vault"), std::string::npos)
      << r.fault.fail_reason;
  EXPECT_EQ(r.dram3d.alive_vaults, 1u);
}

// ---- the directed no-progress wedge ----------------------------------------

TEST(FaultCluster, WatchdogCatchesNeverAckedInvalidationWedge) {
  // Swallow one coherence invalidation mid-run: its ack never returns, the
  // directory transaction parks its bank forever, and the sharers hit the
  // barrier and stop retiring.  The progress signature freezes and the
  // watchdog must convert the hang into a diagnosable WatchdogError whose
  // message carries the parked-state dump — under BOTH schedulers.
  for (cluster::SchedulerMode mode : {cluster::SchedulerMode::kEventDriven,
                                      cluster::SchedulerMode::kDenseTick}) {
    cluster::ClusterConfig cfg =
        paper_cfg("producer_consumer", cluster::Fabric::kMot, 0.05);
    cfg.scheduler = mode;
    cfg.fault.enabled = true;
    cfg.fault.events = {{500, FaultKind::kDropInvalidate, 0, 1}};
    cfg.watchdog.check_interval_cycles = 2'000;
    cfg.watchdog.stall_checks = 2;
    try {
      cluster::Cluster(cfg).run();
      FAIL() << "expected the watchdog to fire under "
             << cluster::scheduler_name(mode);
    } catch (const WatchdogError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("no forward progress"), std::string::npos) << what;
      EXPECT_NE(what.find("parked state at cycle"), std::string::npos) << what;
      EXPECT_NE(what.find("core 0"), std::string::npos) << what;
      // Fault-injected runs engage the flight-recorder ring automatically:
      // the dump must carry the last pre-wedge trace events for triage.
      EXPECT_NE(what.find("-- flight recorder (last"), std::string::npos)
          << what;
    }
  }
}

}  // namespace
}  // namespace mot3d::fault
