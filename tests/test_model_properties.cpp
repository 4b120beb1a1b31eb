// Cross-cutting model properties that individual unit files don't pin
// down: the stack stream's L1 residency, MoT latency monotonicity over the
// whole (cores x banks) gating grid, bus slot pacing, and energy-model
// consistency between the two directions of the MoT.
#include <gtest/gtest.h>

#include <set>

#include "cacti/sram_model.hpp"
#include "core/mot_timing.hpp"
#include "memory_test_doubles.hpp"
#include "noc/network.hpp"
#include "workload/synthetic_trace.hpp"

namespace mot3d {
namespace {

// ---- workload: stack stream ----

TEST(StackStream, StaysInsideItsRegionAndIsHot) {
  const workload::AppProfile& app = workload::profile_by_name("fft");
  workload::Workload w(app, 4, 0.05, 99);
  auto trace = w.make_trace(2);
  const Addr base = workload::AddressMap::private_base(2);
  std::set<Addr> stack_lines;
  std::size_t stack_hits = 0, data_ops = 0;
  for (int i = 0; i < 200000; ++i) {
    const cpu::TraceRecord r = trace->next();
    if (r.kind == cpu::TraceKind::kEnd) break;
    if (r.kind != cpu::TraceKind::kMem || r.op == MemOp::kInstrFetch) continue;
    ++data_ops;
    if (r.addr >= base && r.addr < base + app.stack_bytes) {
      ++stack_hits;
      stack_lines.insert(r.addr / 32);
    }
  }
  ASSERT_GT(data_ops, 1000u);
  // Roughly the configured stack fraction of data references...
  EXPECT_NEAR(static_cast<double>(stack_hits) / static_cast<double>(data_ops),
              app.stack_fraction, 0.06);
  // ... confined to a region that fits inside the 4 KB L1 permanently.
  EXPECT_LE(stack_lines.size() * 32, app.stack_bytes);
}

// ---- MoT timing: monotonicity over the whole gating grid ----

struct GridPoint {
  std::size_t cores, banks;
};

class MotGrid : public ::testing::TestWithParam<GridPoint> {
 protected:
  phys::TechnologyParams tech = phys::default_technology();
  phys::FloorplanParams fp;
  cacti::SramBankConfig bank;
  core::MotTimingModel model{tech, fp, bank};
};

TEST_P(MotGrid, GatingNeverSlowsOrLeaksMore) {
  const GridPoint g = GetParam();
  const auto full = model.timing(16, 32);
  const auto gated = model.timing(g.cores, g.banks);
  EXPECT_LE(gated.l2_round_trip(), full.l2_round_trip());
  EXPECT_LE(gated.request_delay_ns, full.request_delay_ns + 1e-9);

  const core::PowerState full_state = core::PowerState::full();
  const core::PowerState state("grid", 16, g.cores, 32, g.banks);
  EXPECT_LE(model.leakage_mw(state), model.leakage_mw(full_state) + 1e-9);
  EXPECT_LE(model.powered_switches(state), model.powered_switches(full_state));
  EXPECT_LE(model.request_energy_pj(state, false),
            model.request_energy_pj(full_state, false) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MotGrid,
    ::testing::Values(GridPoint{16, 32}, GridPoint{16, 16}, GridPoint{16, 8},
                      GridPoint{8, 32}, GridPoint{8, 16}, GridPoint{8, 8},
                      GridPoint{4, 32}, GridPoint{4, 16}, GridPoint{4, 8},
                      GridPoint{2, 8}, GridPoint{4, 4}),
    [](const auto& info) {
      return "c" + std::to_string(info.param.cores) + "b" +
             std::to_string(info.param.banks);
    });

TEST(MotEnergyModel, DirectionsAreSymmetricForEqualBits) {
  // The request and response networks are mirrored; with equal payloads
  // their wire energy must match (only header widths differ in practice).
  phys::TechnologyParams tech = phys::default_technology();
  phys::FloorplanParams fp;
  cacti::SramBankConfig bank;
  core::MotBusConfig bus;
  bus.addr_bits = 0;
  bus.ctl_bits = 8;  // equal 8-bit headers both ways
  core::MotTimingModel model(tech, fp, bank, bus);
  const core::PowerState s = core::PowerState::full();
  EXPECT_NEAR(model.request_energy_pj(s, true), model.response_energy_pj(s, true),
              1e-9);
}

// ---- NoC: bus slot pacing ----

TEST(BusPacing, QuadrantBusIsSlowerPerFlit) {
  // One 5-flit... (1 + line_flits) response over an otherwise idle bus:
  // the Bus-Tree's 4-cycle slots must space delivery accordingly compared
  // with the Bus-Mesh's 2-cycle pillar slots.
  noc::NocConfig cfg;
  const power::InterconnectPowerModel pm(
      phys::WireModel(phys::default_technology()));
  auto measure = [&](noc::NocTopology topo) {
    auto icn = noc::make_noc(topo, cfg, pm);
    DeliveryLog got;
    MemResponse resp{.id = 1, .core = 0, .bank = 0, .addr = 0, .is_write = false,
                     .l2_hit = true, .issue_cycle = 0};
    icn->try_inject_response(resp, 0);
    for (Cycle t = 0; t < 500 && got.responses.empty(); ++t) got.tick(*icn, t);
    return got.responses.empty() ? Cycle{0} : got.responses[0].second;
  };
  const Cycle mesh = measure(noc::NocTopology::kHybridBusMesh);
  const Cycle tree = measure(noc::NocTopology::kHybridBusTree);
  ASSERT_GT(mesh, 0u);
  ASSERT_GT(tree, 0u);
  // 3 flits: two extra bus slots at +2 cycles each difference minimum.
  EXPECT_GE(tree, mesh + 2);
}

TEST(NocZeroLoad, MeshLatencyTracksHopFormula) {
  // Corner-to-corner single request on the True 3-D Mesh: 3+3 XY hops +
  // 2 Z hops + source/sink; per hop pipeline(1)+link(1).  The measured
  // zero-load latency must sit within a small window of the formula.
  noc::NocConfig cfg;
  const power::InterconnectPowerModel pm(
      phys::WireModel(phys::default_technology()));
  auto icn = noc::make_noc(noc::NocTopology::kTrueMesh3d, cfg, pm);
  DeliveryLog got;
  MemRequest r{.id = 1, .core = 0, .bank = 31, .addr = 0, .is_write = false,
               .issue_cycle = 0};
  icn->try_inject_request(r, 0);
  for (Cycle t = 0; t < 200 && got.requests.empty(); ++t) got.tick(*icn, t);
  ASSERT_EQ(got.requests.size(), 1u);
  const Cycle done = got.requests[0].second;
  // 9 router traversals (src tile + 6 in-plane + 2 vertical), ~2 cy each,
  // + injection pipeline.
  EXPECT_GE(done, 16u);
  EXPECT_LE(done, 26u);
}

}  // namespace
}  // namespace mot3d
