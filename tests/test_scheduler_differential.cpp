// Differential tests for the event-driven scheduler: the quiescence-
// skipping run loop must produce *bit-identical* results to the dense
// per-cycle reference on every fabric, power state and DRAM preset —
// cycles, latency histograms, every counter and every energy ledger entry.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/sha256.hpp"
#include "core/reconfig.hpp"
#include "same_result.hpp"
#include "sim/scenario.hpp"

namespace mot3d::cluster {
namespace {

ClusterConfig cfg_for(const char* app, Fabric fabric, const core::PowerState& state,
                      mem::DramPreset dram, SchedulerMode scheduler,
                      double scale = 0.01) {
  ClusterConfig cfg = make_paper_config(workload::profile_by_name(app), fabric,
                                        state, dram, scale, 42);
  cfg.scheduler = scheduler;
  return cfg;
}

void run_differential(const char* app, Fabric fabric,
                      const core::PowerState& state, mem::DramPreset dram,
                      double scale = 0.01) {
  const SimResult dense =
      Cluster(cfg_for(app, fabric, state, dram, SchedulerMode::kDenseTick, scale))
          .run();
  const SimResult event =
      Cluster(cfg_for(app, fabric, state, dram, SchedulerMode::kEventDriven, scale))
          .run();
  expect_same_result(dense, event);
}

TEST(SchedulerDifferential, MotFullDdr3) {
  run_differential("fft", Fabric::kMot, core::PowerState::full(),
                   mem::DramPreset::kDdr3_200ns);
}

TEST(SchedulerDifferential, TrueMesh3dFullDdr3) {
  run_differential("fft", Fabric::kTrueMesh3d, core::PowerState::full(),
                   mem::DramPreset::kDdr3_200ns);
}

TEST(SchedulerDifferential, HybridBusMeshFullDdr3) {
  run_differential("volrend", Fabric::kHybridBusMesh, core::PowerState::full(),
                   mem::DramPreset::kDdr3_200ns);
}

TEST(SchedulerDifferential, HybridBusTreeFullDdr3) {
  run_differential("radix", Fabric::kHybridBusTree, core::PowerState::full(),
                   mem::DramPreset::kDdr3_200ns);
}

TEST(SchedulerDifferential, MotGatedPc4Mb8) {
  run_differential("cholesky", Fabric::kMot, core::PowerState::pc4_mb8(),
                   mem::DramPreset::kDdr3_200ns);
}

TEST(SchedulerDifferential, MotGatedPc16Mb8FastDram) {
  run_differential("fmm", Fabric::kMot, core::PowerState::pc16_mb8(),
                   mem::DramPreset::kWeis3d_42ns);
}

TEST(SchedulerDifferential, MotGatedPc4Mb32WideIo) {
  run_differential("ocean_contiguous", Fabric::kMot, core::PowerState::pc4_mb32(),
                   mem::DramPreset::kWideIo_63ns);
}

// -- coherence traffic: every sharing pattern, both fabrics, gated too --

TEST(SchedulerDifferential, CoherenceProducerConsumerMot) {
  run_differential("producer_consumer", Fabric::kMot, core::PowerState::full(),
                   mem::DramPreset::kDdr3_200ns);
}

TEST(SchedulerDifferential, CoherenceReadMostlyNoc) {
  run_differential("read_mostly", Fabric::kTrueMesh3d, core::PowerState::full(),
                   mem::DramPreset::kDdr3_200ns);
}

TEST(SchedulerDifferential, CoherenceMigratoryGatedMot) {
  run_differential("migratory", Fabric::kMot, core::PowerState::pc16_mb8(),
                   mem::DramPreset::kWideIo_63ns);
}

TEST(SchedulerDifferential, CoherenceAllToAllMot) {
  run_differential("all_to_all", Fabric::kMot, core::PowerState::full(),
                   mem::DramPreset::kDdr3_200ns);
}

// Coherence + thermal governor: invalidation traffic across a mid-run
// drain/flush/remap (directory migration) and clock-held cores whose
// acknowledgements must keep flowing.
TEST(SchedulerDifferential, CoherenceUnderThermalGovernor) {
  ClusterConfig dense = cfg_for("producer_consumer", Fabric::kMot,
                                core::PowerState::full(),
                                mem::DramPreset::kDdr3_200ns,
                                SchedulerMode::kDenseTick, 0.02);
  dense.thermal = thermal::ThermalConfig::from_envelope(
      thermal::ThermalEnvelope{true, 60.0, 70.0});
  ClusterConfig event = dense;
  event.scheduler = SchedulerMode::kEventDriven;
  expect_same_result(Cluster(dense).run(), Cluster(event).run());
}

TEST(SchedulerDifferential, ColdInstructionCachesExerciseIFetchPath) {
  ClusterConfig dense = cfg_for("fft", Fabric::kMot, core::PowerState::full(),
                                mem::DramPreset::kDdr3_200ns,
                                SchedulerMode::kDenseTick);
  dense.warm_instruction_caches = false;
  ClusterConfig event = dense;
  event.scheduler = SchedulerMode::kEventDriven;
  expect_same_result(Cluster(dense).run(), Cluster(event).run());
}

// Open-page policy changes per-access service latency based on row-buffer
// state; both schedulers must observe identical hit/miss sequences.
TEST(SchedulerDifferential, OpenPagePolicyBitIdentical) {
  ClusterConfig dense = cfg_for("fft", Fabric::kMot, core::PowerState::full(),
                                mem::DramPreset::kDdr3_200ns,
                                SchedulerMode::kDenseTick);
  dense.dram.open_page_policy = true;
  ClusterConfig event = dense;
  event.scheduler = SchedulerMode::kEventDriven;
  const SimResult d = Cluster(dense).run();
  const SimResult e = Cluster(event).run();
  expect_same_result(d, e);
  EXPECT_EQ(d.dram.page_hits, e.dram.page_hits);
  EXPECT_EQ(d.dram.page_misses, e.dram.page_misses);
  EXPECT_GT(d.dram.page_hits + d.dram.page_misses, 0u);
}

// -- one run loop: the poll order and step() --
//
// Each golden runs at most one optional subsystem, so none pins the order
// in which Cluster::poll() serves several of them.  These runs switch on
// thermal control, seeded faults, interval metrics and the watchdog at
// once: governor demotions, fault bank gates and core holds meet in the
// same run.  Each digest covers the canonical run JSON plus every metrics
// row and must hold under both schedulers.

struct PollPin {
  const char* app;
  Fabric fabric;
  sim::DramBackendMode backend;
  fault::FaultEnvelope faults;
  std::vector<fault::FaultEvent> directed = {};  ///< on top of the seeded ones

  sim::ScenarioRun run() const {
    sim::ScenarioRun r;
    r.app = app;
    r.fabric = fabric;
    r.thermal = thermal::ThermalEnvelope{true, 60.0, 70.0};
    r.fault = faults;
    r.dram_backend = backend;
    return r;
  }

  ClusterConfig config(SchedulerMode scheduler) const {
    sim::ScenarioOptions opt;
    opt.scale = 0.02;
    opt.scheduler = scheduler;
    opt.metrics_path = "metrics.csv";  // only engages the metrics registry
    ClusterConfig cfg = sim::make_run_config(run(), opt);
    cfg.fault.events = directed;
    cfg.watchdog.enabled = true;
    return cfg;
  }
};

std::string metrics_rows(const SimResult& r) {
  std::ostringstream os;
  r.metrics->write_csv_rows(os, r.app);
  return os.str();
}

constexpr fault::FaultEnvelope kMixedFaults{true, 2.0, 1.0, 202};

const PollPin kMotConstantFft{"fft", Fabric::kMot,
                              sim::DramBackendMode::kConstant, kMixedFaults};

/// Runs `pin` under both schedulers, checks both against `sha256`, and
/// returns the event-mode result for the caller's coverage checks.
SimResult expect_pinned(const PollPin& pin, const char* sha256) {
  SimResult event;
  for (SchedulerMode mode : {SchedulerMode::kDenseTick, SchedulerMode::kEventDriven}) {
    SimResult r = Cluster(pin.config(mode)).run();
    EXPECT_EQ(sha256_hex(sim::run_metrics_json(pin.run(), r) + metrics_rows(r)),
              sha256)
        << scheduler_name(mode);
    event = std::move(r);
  }
  return event;
}

TEST(PollOrderPin, MotConstantDramFft) {
  const SimResult r = expect_pinned(
      kMotConstantFft,
      "6f9a342906c67ee8ae97e5a77ecd37dcfeb6da88cd19ebd5e43596ccb715608d");
  // The pin is only worth something if the subsystems actually interleave.
  EXPECT_GT(r.thermal.bank_gate_events, 0u);
  EXPECT_GT(r.thermal.core_hold_events, 0u);
  EXPECT_GT(r.fault.bank_gate_events, 0u);
}

TEST(PollOrderPin, MotStackedRemapFft) {
  expect_pinned(
      {"fft", Fabric::kMot, sim::DramBackendMode::kStackedRemap, kMixedFaults},
      "6ff2a53228791aec4e3efdce384d465478af4860267ae42b3127c629a5d7b0a1");
}

TEST(PollOrderPin, MotStackedRemapProducerConsumer) {
  expect_pinned({"producer_consumer", Fabric::kMot,
                 sim::DramBackendMode::kStackedRemap, kMixedFaults},
                "dfd50536481f00059db44ddee33cc814fafcbe87f1a4238b819bdc241a5a4390");
}

TEST(PollOrderPin, Mesh3dDegradeOnlyFaults) {
  const SimResult r = expect_pinned(
      {"fft", Fabric::kTrueMesh3d, sim::DramBackendMode::kConstant,
       fault::FaultEnvelope{true, 2.0, 0.0, 202}},
      "86d7c2c3b5dcc6673a5323b430e9b411f1dfd769bbc95c3f580021436380f050");
  EXPECT_EQ(r.fault.outcome, "degraded");
}

// Seeded faults rarely land on a thermal boundary, so these directed ones
// do: a governor demotion and a fault bank gate then contend for the same
// drain in the same poll, and serving faults before the thermal boundary
// changes the digest.
TEST(PollOrderPin, MotFaultsOnThermalBoundaries) {
  PollPin pin = kMotConstantFft;
  pin.directed = {{10'000, fault::FaultKind::kBankFail, 3, 0},
                  {20'000, fault::FaultKind::kBankFail, 28, 0},
                  {30'000, fault::FaultKind::kTsvDegrade, 12, 2}};
  expect_pinned(
      pin, "54ff5fb0a31043daf9989570f5d70ba6684bf5bffafdd511613926349c07b53c");
}

// step() runs the configured scheduler's loop, polls included: stepping
// past the first 10 000-cycle thermal and metrics boundary and then
// running to the end must reproduce a plain run() exactly.
TEST(RunLoop, StepThenRunMatchesRun) {
  const sim::ScenarioRun run = kMotConstantFft.run();
  for (SchedulerMode mode : {SchedulerMode::kDenseTick, SchedulerMode::kEventDriven}) {
    const SimResult whole = Cluster(kMotConstantFft.config(mode)).run();
    Cluster stepped(kMotConstantFft.config(mode));
    stepped.step(15'000);
    const SimResult split = stepped.run();
    EXPECT_EQ(split.thermal.samples, whole.thermal.samples) << scheduler_name(mode);
    EXPECT_EQ(split.metrics->sample_count(), whole.metrics->sample_count())
        << scheduler_name(mode);
    EXPECT_EQ(metrics_rows(split), metrics_rows(whole)) << scheduler_name(mode);
    EXPECT_EQ(sim::run_metrics_json(run, split), sim::run_metrics_json(run, whole))
        << scheduler_name(mode);
  }
}

constexpr SchedulerMode kBothModes[] = {SchedulerMode::kDenseTick,
                                        SchedulerMode::kEventDriven};

// A finished run has no future event.  Stepping an event-mode run far past
// its end jumps there instead of throwing the deadlock check, and the
// step's end closes every core's books as the dense loop's ticks do.
TEST(RunLoop, StepPastTheFinishMatchesDense) {
  constexpr Cycle kSteps = 200'000;
  const auto cfg = [](SchedulerMode mode) {
    return cfg_for("fft", Fabric::kMot, core::PowerState::full(),
                   mem::DramPreset::kDdr3_200ns, mode);
  };
  ASSERT_LT(2 * Cluster(cfg(SchedulerMode::kEventDriven)).run().cycles, kSteps);
  SimResult stepped[2];
  for (std::size_t m = 0; m < 2; ++m) {
    Cluster c(cfg(kBothModes[m]));
    EXPECT_NO_THROW(c.step(kSteps)) << scheduler_name(kBothModes[m]);
    EXPECT_TRUE(c.finished()) << scheduler_name(kBothModes[m]);
    EXPECT_EQ(c.now(), kSteps) << scheduler_name(kBothModes[m]);
    stepped[m] = c.collect_result();
  }
  expect_same_result(stepped[0], stepped[1]);
}

// The power_gating example's flow: step mid-run, step one cycle at a time
// until the fabric idles (five cycles from this stop), gate to PC16-MB8
// from outside the cluster, then run to the end.  Both schedulers must
// agree on every byte.
TEST(RunLoop, ReconfigureBetweenStepsMatchesDense) {
  sim::ScenarioRun run;
  run.app = "fft";
  SimResult results[2];
  for (std::size_t m = 0; m < 2; ++m) {
    SCOPED_TRACE(scheduler_name(kBothModes[m]));
    Cluster c(cfg_for("fft", Fabric::kMot, core::PowerState::full(),
                      mem::DramPreset::kDdr3_200ns, kBothModes[m]));
    c.step(24'985);
    ASSERT_FALSE(c.finished());
    Cycle drain = 0;
    while (!c.interconnect().idle()) {
      c.step(1);
      ++drain;
    }
    EXPECT_GT(drain, 0u);
    EXPECT_GT(core::reconfigure(*c.mot(), c.l2(), c.dram(), nullptr,
                                core::PowerState::pc16_mb8(), c.now())
                  .dirty_lines_flushed,
              0u);
    results[m] = c.run();
    EXPECT_EQ(c.l2().num_active_banks(), 8u);
  }
  EXPECT_EQ(sim::run_metrics_json(run, results[0]),
            sim::run_metrics_json(run, results[1]));
  expect_same_result(results[0], results[1]);
}

TEST(SchedulerDifferential, EventModeIsTheDefault) {
  EXPECT_EQ(ClusterConfig{}.scheduler, SchedulerMode::kEventDriven);
  EXPECT_STREQ(scheduler_name(SchedulerMode::kEventDriven), "event");
  EXPECT_STREQ(scheduler_name(SchedulerMode::kDenseTick), "dense");
}

}  // namespace
}  // namespace mot3d::cluster
