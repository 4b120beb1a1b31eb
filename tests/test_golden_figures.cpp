// Golden-figure regression suite: every registered figure/table scenario is
// re-run at its pinned golden options and its canonical metrics JSON is
// compared byte-for-byte against the committed baseline under tests/golden/.
// Each scenario is checked under BOTH schedulers — the event-driven loop
// must serialise to the exact bytes of the dense-tick reference, so a
// scheduler bug and a model drift are caught by the same net.
//
// To change a baseline on purpose (a deliberate model change):
//   ./build/mot3d_experiments update-golden
// then commit the JSON diff together with the change that motivated it.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "common/sha256.hpp"
#include "sim/scenario.hpp"
#include "sim/scenario_registry.hpp"

#ifndef MOT3D_GOLDEN_DIR
#define MOT3D_GOLDEN_DIR "tests/golden"
#endif

namespace mot3d::sim {
namespace {

std::string read_file(const std::string& path, bool* ok) {
  std::ifstream in(path, std::ios::binary);
  *ok = static_cast<bool>(in);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class GoldenFigures : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenFigures, MatchesBaselineUnderBothSchedulers) {
  const ScenarioSpec* spec = find_scenario(GetParam());
  ASSERT_NE(spec, nullptr);
  ASSERT_TRUE(spec->has_golden);

  const std::string path = std::string(MOT3D_GOLDEN_DIR) + "/" + spec->name + ".json";
  bool ok = false;
  const std::string golden = read_file(path, &ok);
  ASSERT_TRUE(ok) << "missing baseline " << path
                  << " — regenerate with: mot3d_experiments update-golden";

  for (cluster::SchedulerMode mode :
       {cluster::SchedulerMode::kEventDriven, cluster::SchedulerMode::kDenseTick}) {
    ScenarioOptions opt = golden_options(*spec);
    opt.scheduler = mode;
    const ScenarioOutcome out = run_scenario(*spec, opt);
    EXPECT_EQ(scenario_metrics_json(out), golden)
        << "scenario " << spec->name << " drifted from its baseline under the "
        << cluster::scheduler_name(mode)
        << " scheduler.  If the model change is intentional, regenerate with "
           "mot3d_experiments update-golden and commit the diff.";
  }
}

std::string pretty_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string n = info.param;
  for (char& c : n) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(Registry, GoldenFigures,
                         ::testing::ValuesIn(golden_scenario_names()),
                         pretty_name);

// The registry itself is part of the contract: every figure/table of the
// paper must stay registered, discoverable, and golden-pinned.
TEST(ScenarioRegistry, AllFigureAndTableScenariosRegistered) {
  for (const char* name :
       {"table1_config", "fig5_wire_lengths", "fig6a_l2_latency",
        "fig6b_exec_time", "fig7a_edp_200ns", "fig7b_exec_time_states",
        "fig8a_edp_63ns", "fig8b_edp_42ns", "thermal_envelope",
        "coherence_sharing", "fault_resilience", "scale_smoke",
        "stacked_dram"}) {
    const ScenarioSpec* spec = find_scenario(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_TRUE(spec->has_golden) << name;
  }
  for (const char* name : {"ablation_wire", "ablation_pipeline"}) {
    const ScenarioSpec* spec = find_scenario(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_EQ(spec->kind, ScenarioSpec::Kind::kCustom) << name;
    EXPECT_FALSE(spec->has_golden) << name;
  }
  EXPECT_EQ(all_scenarios().size(), 15u);
  EXPECT_EQ(find_scenario("no_such_scenario"), nullptr);
}

// The ablations pin no golden baseline, so nothing else runs them.  Their
// tables are pinned by the SHA-256 of what `mot3d_experiments run <name>`
// prints, which is the same at every --threads.
TEST(ScenarioRegistry, AblationOutputsArePinned) {
  const std::pair<const char*, const char*> pins[] = {
      {"ablation_pipeline",
       "afbd730a71b19ca0fefd9ecf2ec29b5bf36c8c66dfce6c621a623f1e4c38261b"},
      {"ablation_wire",
       "b98380afec0b46ca00608a031d2e0dd637d85c5e886ed4ced57f7ded52ea7ae8"},
  };
  for (const auto& [name, digest] : pins) {
    const ScenarioSpec* spec = find_scenario(name);
    ASSERT_NE(spec, nullptr) << name;
    ScenarioOptions opt;
    opt.scale = spec->default_scale;
    std::ostringstream out;
    EXPECT_EQ(run_and_present(*spec, opt, out), 0) << name;
    EXPECT_EQ(sha256_hex(out.str()), digest) << name << " printed:\n" << out.str();
  }
}

TEST(ScenarioRegistry, GridExpansionDropsInvalidCombos) {
  ScenarioSpec spec;
  spec.apps = {"fft"};
  spec.fabrics = {cluster::Fabric::kMot, cluster::Fabric::kTrueMesh3d};
  spec.power_states = {core::PowerState::full(), core::PowerState::pc4_mb8()};
  spec.dram_presets = {mem::DramPreset::kDdr3_200ns};
  std::size_t skipped = 0;
  auto runs = expand_grid(spec, &skipped);
  // MoT runs both states; the packet-switched mesh only runs Full.
  EXPECT_EQ(runs.size(), 3u);
  EXPECT_EQ(skipped, 1u);
  // No thermal axis: every cell carries the disabled envelope.
  for (const ScenarioRun& r : runs) EXPECT_FALSE(r.thermal.enabled);

  // A thermal axis multiplies the valid grid and decorates each run.
  spec.thermal_envelopes = {thermal::ThermalEnvelope{true, 45.0, 85.0},
                            thermal::ThermalEnvelope{true, 60.0, 70.0}};
  EXPECT_EQ(spec.grid_size(), 8u);
  runs = expand_grid(spec, &skipped);
  EXPECT_EQ(runs.size(), 6u);
  EXPECT_EQ(skipped, 2u);
  EXPECT_TRUE(runs[0].thermal.enabled);
  EXPECT_EQ(runs[0].thermal.ambient_c, 45.0);
  EXPECT_EQ(runs[1].thermal.ambient_c, 60.0);

  // A fault axis multiplies further, as the innermost dimension.
  spec.fault_envelopes = {fault::FaultEnvelope{true, 1.0, 0.0, 101},
                          fault::FaultEnvelope{true, 2.0, 1.0, 202}};
  EXPECT_EQ(spec.grid_size(), 16u);
  runs = expand_grid(spec, &skipped);
  EXPECT_EQ(runs.size(), 12u);
  EXPECT_EQ(skipped, 4u);
  EXPECT_TRUE(runs[0].fault.enabled);
  EXPECT_EQ(runs[0].fault.seed, 101u);
  EXPECT_EQ(runs[1].fault.seed, 202u);
  EXPECT_EQ(runs[1].fault.bank_fault_rate, 1.0);
}

TEST(ScenarioRegistry, AxisParsersRoundTrip) {
  for (cluster::Fabric f :
       {cluster::Fabric::kMot, cluster::Fabric::kTrueMesh3d,
        cluster::Fabric::kHybridBusMesh, cluster::Fabric::kHybridBusTree}) {
    EXPECT_EQ(fabric_by_key(fabric_key(f)), f);
  }
  EXPECT_THROW(fabric_by_key("ring"), std::invalid_argument);

  for (const core::PowerState& s : core::PowerState::paper_states()) {
    EXPECT_EQ(power_state_by_name(s.name()), s);
  }
  // Generic gating levels beyond the paper's four states.
  const core::PowerState pc8 = power_state_by_name("PC8-MB16");
  EXPECT_EQ(pc8.active_cores(), 8u);
  EXPECT_EQ(pc8.active_banks(), 16u);
  EXPECT_THROW(power_state_by_name("PCx-MBy"), std::invalid_argument);
  // Trailing garbage after a valid pattern is a typo, not a state.
  EXPECT_THROW(power_state_by_name("PC4-MB8x"), std::invalid_argument);

  EXPECT_EQ(dram_preset_by_key("200"), mem::DramPreset::kDdr3_200ns);
  EXPECT_EQ(dram_preset_by_key("wideio"), mem::DramPreset::kWideIo_63ns);
  EXPECT_EQ(dram_preset_by_key("42"), mem::DramPreset::kWeis3d_42ns);
  EXPECT_THROW(dram_preset_by_key("100"), std::invalid_argument);
}

}  // namespace
}  // namespace mot3d::sim
