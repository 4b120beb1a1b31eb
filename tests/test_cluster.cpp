// Integration tests: the full cluster (cores + L1 + interconnect + stacked
// L2 + Miss bus + DRAM) running synthetic SPLASH-2 workloads end to end.
// Checks determinism, conservation invariants, Table I latency visibility,
// power-state plumbing and basic cross-fabric sanity.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cluster/cluster.hpp"
#include "same_result.hpp"

namespace mot3d::cluster {
namespace {

ClusterConfig small_cfg(const char* app, Fabric fabric,
                        core::PowerState state = core::PowerState::full(),
                        double scale = 0.01, std::uint64_t seed = 42) {
  return make_paper_config(workload::profile_by_name(app), fabric, state,
                           mem::DramPreset::kDdr3_200ns, scale, seed);
}

TEST(Cluster, RunsToCompletionOnMot) {
  Cluster c(small_cfg("fft", Fabric::kMot));
  const SimResult r = c.run();
  EXPECT_GT(r.cycles, 1000u);
  EXPECT_GT(r.instructions, 10000u);
  EXPECT_EQ(r.cores.size(), 16u);
  EXPECT_EQ(r.fabric, "3-D MoT");
  EXPECT_EQ(r.interconnect.output_visits, 0u);  // no packet routers
}

TEST(Cluster, DeterministicAcrossRuns) {
  const SimResult a = Cluster(small_cfg("volrend", Fabric::kMot)).run();
  const SimResult b = Cluster(small_cfg("volrend", Fabric::kMot)).run();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.l2.accesses(), b.l2.accesses());
  EXPECT_DOUBLE_EQ(a.energy.edp_energy_pj(), b.energy.edp_energy_pj());
}

TEST(Cluster, SeedChangesChangeOutcome) {
  const SimResult a = Cluster(small_cfg("volrend", Fabric::kMot)).run();
  const SimResult b =
      Cluster(small_cfg("volrend", Fabric::kMot, core::PowerState::full(), 0.01, 43))
          .run();
  EXPECT_NE(a.cycles, b.cycles);
}

TEST(Cluster, ConservationInvariants) {
  Cluster c(small_cfg("raytrace", Fabric::kMot));
  const SimResult r = c.run();
  // Every injected request is delivered and answered.
  EXPECT_EQ(r.interconnect.requests_injected, r.interconnect.requests_delivered);
  EXPECT_EQ(r.interconnect.responses_injected, r.interconnect.responses_delivered);
  EXPECT_EQ(r.interconnect.requests_injected, r.interconnect.responses_injected);
  // L2 served exactly the delivered requests.
  EXPECT_EQ(r.l2.accesses(), r.interconnect.requests_delivered);
  // Responses measured at the cores match the L2 latency histogram count.
  EXPECT_EQ(r.l2_latency.count(), r.interconnect.responses_delivered);
  // Energy is positive in every accounted component.
  EXPECT_GT(r.energy.component_pj(power::Component::kCore), 0.0);
  EXPECT_GT(r.energy.component_pj(power::Component::kL2), 0.0);
  EXPECT_GT(r.energy.component_pj(power::Component::kInterconnect), 0.0);
  EXPECT_GT(r.edp_pj_s, 0.0);
}

TEST(Cluster, MotHitLatencyMatchesTableI) {
  // Unloaded L2 hits travel in exactly 12 cycles at Full connection; with
  // load the mean can only go up.  The minimum observed must be 12.
  Cluster c(small_cfg("fft", Fabric::kMot));
  const SimResult r = c.run();
  ASSERT_GT(r.l2_hit_latency.count(), 0u);
  EXPECT_EQ(r.l2_hit_latency.min(), 12u);
  EXPECT_GE(r.l2_hit_latency.mean(), 12.0);
}

TEST(Cluster, Pc4Mb8HitLatencyMatchesTableI) {
  Cluster c(small_cfg("fft", Fabric::kMot, core::PowerState::pc4_mb8()));
  const SimResult r = c.run();
  ASSERT_GT(r.l2_hit_latency.count(), 0u);
  EXPECT_EQ(r.l2_hit_latency.min(), 7u);
}

TEST(Cluster, PowerGatedRunUsesOnlyActiveResources) {
  Cluster c(small_cfg("fft", Fabric::kMot, core::PowerState::pc4_mb32()));
  const SimResult r = c.run();
  EXPECT_EQ(r.cores.size(), 4u);
  EXPECT_EQ(r.power_state, "PC4-MB32");
  EXPECT_GT(r.cycles, 0u);
}

TEST(Cluster, FewerCoresRunLonger) {
  const SimResult full =
      Cluster(small_cfg("radix", Fabric::kMot, core::PowerState::full(), 0.02)).run();
  const SimResult pc4 =
      Cluster(small_cfg("radix", Fabric::kMot, core::PowerState::pc4_mb32(), 0.02))
          .run();
  // radix scales, so 4 cores are much slower than 16.
  EXPECT_GT(pc4.cycles, full.cycles * 2);
}

TEST(Cluster, NocFabricsRunToCompletion) {
  for (Fabric f : {Fabric::kTrueMesh3d, Fabric::kHybridBusMesh,
                   Fabric::kHybridBusTree}) {
    Cluster c(small_cfg("fft", f));
    const SimResult r = c.run();
    EXPECT_GT(r.cycles, 1000u) << fabric_name(f);
    EXPECT_EQ(r.interconnect.requests_injected, r.interconnect.responses_delivered)
        << fabric_name(f);
    EXPECT_GT(r.interconnect.output_visits, 0u) << fabric_name(f);
  }
}

TEST(Cluster, MotIsFasterThanPacketSwitchedBaselines) {
  // The headline of Fig. 6: the circuit-switched MoT beats all three
  // packet-switched baselines on the same workload.
  const SimResult mot = Cluster(small_cfg("fmm", Fabric::kMot)).run();
  for (Fabric f : {Fabric::kTrueMesh3d, Fabric::kHybridBusMesh,
                   Fabric::kHybridBusTree}) {
    const SimResult other = Cluster(small_cfg("fmm", f)).run();
    EXPECT_LT(mot.cycles, other.cycles) << fabric_name(f);
    EXPECT_LT(mot.l2_hit_latency.mean(), other.l2_hit_latency.mean())
        << fabric_name(f);
  }
}

TEST(Cluster, GatedStatesRejectedOnNocFabrics) {
  EXPECT_THROW(
      Cluster(small_cfg("fft", Fabric::kTrueMesh3d, core::PowerState::pc16_mb8())),
      std::invalid_argument);
}

TEST(Cluster, ScaleOutShapesRejectedOnNocFabrics) {
  // The packet-switched topology builders lay out the 16x32 tile grid
  // only; the MoT is the one fabric that scales out.
  try {
    Cluster(small_cfg("fft", Fabric::kTrueMesh3d,
                      core::PowerState("Full64x128", 64, 64, 128, 128)));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("16-core/32-bank"), std::string::npos)
        << e.what();
  }
}

TEST(Cluster, DramPresetWiredThrough) {
  ClusterConfig cfg = small_cfg("fft", Fabric::kMot);
  cfg.dram_preset = mem::DramPreset::kWeis3d_42ns;
  Cluster c(cfg);
  const SimResult r = c.run();
  EXPECT_DOUBLE_EQ(r.dram_latency_ns, 42.0);
}

TEST(Cluster, FasterDramShortensRuns) {
  ClusterConfig slow = small_cfg("ocean_contiguous", Fabric::kMot);
  ClusterConfig fast = slow;
  fast.dram_preset = mem::DramPreset::kWeis3d_42ns;
  const SimResult rs = Cluster(slow).run();
  const SimResult rf = Cluster(fast).run();
  EXPECT_LT(rf.cycles, rs.cycles);
}

TEST(Cluster, StepAndFinishedApi) {
  const SchedulerMode modes[] = {SchedulerMode::kDenseTick,
                                 SchedulerMode::kEventDriven};
  SimResult partial[2];
  for (std::size_t m = 0; m < 2; ++m) {
    ClusterConfig cfg = small_cfg("fft", Fabric::kMot);
    cfg.scheduler = modes[m];
    Cluster c(cfg);
    EXPECT_FALSE(c.finished()) << scheduler_name(modes[m]);
    c.step(100);
    EXPECT_EQ(c.now(), 100u) << scheduler_name(modes[m]);
    partial[m] = c.collect_result();
    EXPECT_EQ(partial[m].cycles, 100u) << scheduler_name(modes[m]);
  }
  // step() catches every core up, so the snapshots agree counter for
  // counter.
  expect_same_result(partial[0], partial[1]);
}

TEST(Cluster, L1MissRatesInPlausibleBand) {
  Cluster c(small_cfg("fft", Fabric::kMot, core::PowerState::full(), 0.02));
  const SimResult r = c.run();
  EXPECT_GT(r.l1d_miss_rate, 0.01);
  EXPECT_LT(r.l1d_miss_rate, 0.30);
  // Warmed I-caches: steady-state instruction stream barely misses.
  EXPECT_LT(r.l1i_miss_rate, 0.05);
}

TEST(Cluster, ColdInstructionCachesMissOnFirstSweep) {
  ClusterConfig cfg = small_cfg("fft", Fabric::kMot);
  cfg.warm_instruction_caches = false;
  const SimResult cold = Cluster(cfg).run();
  const SimResult warm = Cluster(small_cfg("fft", Fabric::kMot)).run();
  EXPECT_GT(cold.l1i_miss_rate, warm.l1i_miss_rate);
  EXPECT_GT(cold.cycles, warm.cycles);  // I-refills ride the 200 ns Miss bus
}

}  // namespace
}  // namespace mot3d::cluster
