// Thermal subsystem tests: floorplan derivation, RC solver physics
// (closed-form steady state, dt stability), a bitwise oracle for the
// solver against the adjacency-list solve it replaced, the leakage
// temperature law, governor hysteresis/duty-cycling, the EnergyLedger
// delta API, and end-to-end determinism of thermal runs across schedulers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iomanip>
#include <limits>
#include <random>

#include "cluster/advisor.hpp"
#include "cluster/cluster.hpp"
#include "common/leakage.hpp"
#include "power/energy_ledger.hpp"
#include "sim/scenario.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/governor.hpp"
#include "thermal/rc_solver.hpp"
#include "thermal/thermal_model.hpp"

namespace mot3d {
namespace {

using thermal::ThermalFloorplan;
using thermal::ThermalRcSolver;
using thermal::ThermalStackParams;

ThermalFloorplan paper_floorplan(ThermalStackParams stack = {}) {
  return ThermalFloorplan(phys::FloorplanParams{}, phys::default_technology(),
                          stack);
}

// ---- floorplan derivation --------------------------------------------------

TEST(ThermalFloorplan, DerivesGridFromElectricalFloorplan) {
  const ThermalFloorplan flp = paper_floorplan();
  EXPECT_EQ(flp.layers(), 3u);
  EXPECT_EQ(flp.columns(), 16u);  // one per core site / TSV landing column
  EXPECT_EQ(flp.tile_count(), 48u);

  // Cores live on the core die; banks pair up per landing column, one on
  // each stacked tier.
  EXPECT_EQ(flp.core_tile(0), flp.tile_index(0, 0));
  EXPECT_EQ(flp.core_tile(15), flp.tile_index(0, 15));
  EXPECT_EQ(flp.bank_tile(0), flp.tile_index(1, 0));
  EXPECT_EQ(flp.bank_tile(1), flp.tile_index(2, 0));
  EXPECT_EQ(flp.bank_tile(30), flp.tile_index(1, 15));
  EXPECT_EQ(flp.bank_tile(31), flp.tile_index(2, 15));

  // The core die is thicker than the thinned stacked tiers: more thermal
  // mass and more lateral spreading.
  EXPECT_GT(flp.tiles()[flp.tile_index(0, 0)].capacitance_j_k,
            flp.tiles()[flp.tile_index(1, 0)].capacitance_j_k);
  EXPECT_GT(flp.lateral_g_w_k(0), flp.lateral_g_w_k(1));
  EXPECT_GT(flp.vertical_g_w_k(0), 0.0);
  EXPECT_GT(flp.sink_g_w_k(), 0.0);
}

TEST(ThermalFloorplan, ChannelTilesFollowTheActiveSpan) {
  const ThermalFloorplan flp = paper_floorplan();
  // Full connection: the whole channel.
  EXPECT_EQ(flp.channel_tiles(16, 32).size(), 16u);
  // PC4-MB8: 4 centre core columns, 4 bank landing columns -> centre span.
  const auto gated = flp.channel_tiles(4, 8);
  EXPECT_EQ(gated.size(), 4u);
  EXPECT_EQ(gated.front(), flp.tile_index(0, 6));
  EXPECT_EQ(gated.back(), flp.tile_index(0, 9));
}

// ---- RC solver physics -----------------------------------------------------

/// Single-column configuration: lateral conduction is irrelevant when all
/// power is uniform per layer, so each column is an independent 1-D stack
/// with the closed-form solution
///   T0 = Tamb + (P0+P1+P2)/Gs,  T1 = T0 + (P1+P2)/Gv,  T2 = T1 + P2/Gv.
TEST(ThermalRcSolver, SteadyStateMatchesClosedFormStackSolution) {
  const ThermalFloorplan flp = paper_floorplan();
  const double ambient = 45.0;
  ThermalRcSolver solver(flp, ambient);

  const std::size_t cols = flp.columns();
  const double p0 = 0.08, p1 = 0.03, p2 = 0.02;  // W per tile, uniform
  std::vector<double> power(flp.tile_count(), 0.0);
  for (std::size_t c = 0; c < cols; ++c) {
    power[flp.tile_index(0, c)] = p0;
    power[flp.tile_index(1, c)] = p1;
    power[flp.tile_index(2, c)] = p2;
  }

  const double gs = flp.sink_g_w_k();
  const double gv0 = flp.vertical_g_w_k(0);
  const double gv1 = flp.vertical_g_w_k(1);
  const double t0 = ambient + (p0 + p1 + p2) / gs;
  const double t1 = t0 + (p1 + p2) / gv0;
  const double t2 = t1 + p2 / gv1;

  // Uniform per-layer power leaves no lateral gradients, so the 1-D
  // closed form holds exactly per column, via the steady solver...
  const std::vector<double> steady = solver.steady_state(power);
  for (std::size_t c = 0; c < cols; ++c) {
    EXPECT_NEAR(steady[flp.tile_index(0, c)], t0, 1e-6);
    EXPECT_NEAR(steady[flp.tile_index(1, c)], t1, 1e-6);
    EXPECT_NEAR(steady[flp.tile_index(2, c)], t2, 1e-6);
  }

  // ...and via long transient stepping (several sink time constants).
  solver.step(power, 50.0);
  EXPECT_NEAR(solver.tile_c(flp.tile_index(0, 7)), t0, 1e-3);
  EXPECT_NEAR(solver.tile_c(flp.tile_index(1, 7)), t1, 1e-3);
  EXPECT_NEAR(solver.tile_c(flp.tile_index(2, 7)), t2, 1e-3);

  // The stacked-cache asymmetry: upper tiers are strictly hotter.
  EXPECT_GT(t2, t1);
  EXPECT_GT(t1, t0);
  EXPECT_GT(t0, ambient);
}

TEST(ThermalRcSolver, ExplicitSteppingIsStableFarBeyondTheBound) {
  const ThermalFloorplan flp = paper_floorplan();
  ThermalRcSolver solver(flp, 45.0);
  ASSERT_GT(solver.stable_dt_s(), 0.0);

  // Hammer one corner tile hard and ask for a step 1e6x the stability
  // bound: internal substepping must keep every temperature finite and
  // below the (conservative) all-power-into-one-resistor bound.
  std::vector<double> power(flp.tile_count(), 0.0);
  power[flp.tile_index(2, 0)] = 5.0;
  solver.step(power, 1e6 * solver.stable_dt_s());
  const double bound =
      45.0 + 5.0 / flp.sink_g_w_k() + 5.0 / flp.vertical_g_w_k(0) +
      5.0 / flp.vertical_g_w_k(1) + 1.0;
  for (double t : solver.temperatures_c()) {
    EXPECT_TRUE(std::isfinite(t));
    EXPECT_GE(t, 45.0 - 1e-9);
    EXPECT_LT(t, bound);
  }
}

// ---- bitwise oracle for the RC solver ---------------------------------------

/// The adjacency-list solver that ThermalRcSolver's grid form replaced:
/// constructor, step() and steady_state() word for word, plus a count of
/// the sweeps the last steady_state() ran.  ThermalRcSolver must return
/// the same bits.
class ReferenceRcSolver {
 public:
  ReferenceRcSolver(const ThermalFloorplan& flp, double ambient_c)
      : layers_(flp.layers()), columns_(flp.columns()), ambient_c_(ambient_c) {
    const std::size_t n = flp.tile_count();
    cap_.resize(n);
    sink_g_.assign(n, 0.0);
    g_sum_.assign(n, 0.0);
    edges_.assign(n, {});
    temp_.assign(n, ambient_c_);
    scratch_.assign(n, ambient_c_);

    for (std::size_t i = 0; i < n; ++i) cap_[i] = flp.tiles()[i].capacitance_j_k;

    auto connect = [this](std::size_t a, std::size_t b, double g) {
      edges_[a].push_back({b, g});
      edges_[b].push_back({a, g});
      g_sum_[a] += g;
      g_sum_[b] += g;
    };

    for (std::size_t layer = 0; layer < layers_; ++layer) {
      const double lat = flp.lateral_g_w_k(layer);
      for (std::size_t col = 0; col + 1 < columns_; ++col) {
        connect(flp.tile_index(layer, col), flp.tile_index(layer, col + 1), lat);
      }
    }
    for (std::size_t layer = 0; layer + 1 < layers_; ++layer) {
      const double vert = flp.vertical_g_w_k(layer);
      for (std::size_t col = 0; col < columns_; ++col) {
        connect(flp.tile_index(layer, col), flp.tile_index(layer + 1, col), vert);
      }
    }
    const double sink = flp.sink_g_w_k();
    for (std::size_t col = 0; col < columns_; ++col) {
      const std::size_t i = flp.tile_index(0, col);
      sink_g_[i] = sink;
      g_sum_[i] += sink;
    }

    stable_dt_s_ = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (g_sum_[i] > 0.0) stable_dt_s_ = std::min(stable_dt_s_, cap_[i] / g_sum_[i]);
    }
  }

  void step(const std::vector<double>& power_w, double dt_s) {
    if (dt_s <= 0.0) return;
    const double max_sub = kStabilitySafety * stable_dt_s_;
    const auto substeps =
        static_cast<std::size_t>(std::max(1.0, std::ceil(dt_s / max_sub)));
    const double dt_sub = dt_s / static_cast<double>(substeps);

    const std::size_t n = cap_.size();
    for (std::size_t s = 0; s < substeps; ++s) {
      for (std::size_t i = 0; i < n; ++i) {
        double flow_w = power_w[i] + sink_g_[i] * (ambient_c_ - temp_[i]);
        for (const Edge& e : edges_[i]) flow_w += e.g_w_k * (temp_[e.other] - temp_[i]);
        scratch_[i] = temp_[i] + dt_sub * flow_w / cap_[i];
      }
      temp_.swap(scratch_);
    }
  }

  std::vector<double> steady_state(const std::vector<double>& power_w) {
    const std::size_t n = cap_.size();
    // Seed from the transient state: close to the answer during a run.
    std::vector<double> t = temp_;
    sweeps_ = 0;
    for (std::size_t sweep = 0; sweep < kSteadyMaxSweeps; ++sweep) {
      ++sweeps_;
      double max_delta = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (g_sum_[i] <= 0.0) continue;  // isolated node: keep its seed
        double num = power_w[i] + sink_g_[i] * ambient_c_;
        for (const Edge& e : edges_[i]) num += e.g_w_k * t[e.other];
        const double next = num / g_sum_[i];
        max_delta = std::max(max_delta, std::abs(next - t[i]));
        t[i] = next;
      }
      if (max_delta < kSteadyTolC) break;
    }
    return t;
  }

  void set_temperatures(const std::vector<double>& temps_c) { temp_ = temps_c; }
  const std::vector<double>& temperatures_c() const { return temp_; }
  double stable_dt_s() const { return stable_dt_s_; }
  /// Sweeps the last steady_state() ran.
  std::size_t sweeps() const { return sweeps_; }

  static constexpr std::size_t kSteadyMaxSweeps = 20000;

 private:
  static constexpr double kStabilitySafety = 0.5;
  static constexpr double kSteadyTolC = 1e-9;

  struct Edge {
    std::size_t other;
    double g_w_k;
  };

  std::size_t layers_;
  std::size_t columns_;
  double ambient_c_;
  double stable_dt_s_;
  std::vector<double> cap_;
  std::vector<double> sink_g_;
  std::vector<double> g_sum_;
  std::vector<std::vector<Edge>> edges_;
  std::vector<double> temp_;
  std::vector<double> scratch_;
  std::size_t sweeps_ = 0;
};

/// Byte equality of two temperature vectors, naming the first tile that
/// differs.
::testing::AssertionResult SameBits(const std::vector<double>& got,
                                    const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " != " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "tile " << i << ": " << std::setprecision(17) << got[i]
             << " != " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

ThermalFloorplan floorplan_of(std::size_t columns, ThermalStackParams stack = {}) {
  phys::FloorplanParams fp;
  fp.max_cores = columns;
  return ThermalFloorplan(fp, phys::default_technology(), stack);
}

/// Per-tile power, W: uniform up to 0.1 W per tile of the 16-column die,
/// scaled to the tile width so every floorplan dissipates alike.
std::vector<double> random_power(const ThermalFloorplan& flp, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> w(0.0, 0.1 * 16.0 / flp.columns());
  std::vector<double> p(flp.tile_count());
  for (double& x : p) x = w(rng);
  return p;
}

/// A transient state to seed the solve from: 45 to 85 °C per tile.
std::vector<double> random_temps(const ThermalFloorplan& flp, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> t(45.0, 85.0);
  std::vector<double> out(flp.tile_count());
  for (double& x : out) x = t(rng);
  return out;
}

constexpr std::size_t kOracleColumns[] = {1, 2, 3, 16, 64, 256};

TEST(ThermalRcOracle, SteadyStateIsBitIdenticalToTheAdjacencyListSolve) {
  std::mt19937_64 rng(42);
  bool odd_sweeps = false, even_sweeps = false;
  for (std::size_t columns : kOracleColumns) {
    SCOPED_TRACE(::testing::Message() << columns << " columns");
    const ThermalFloorplan flp = floorplan_of(columns);
    ThermalRcSolver solver(flp, 45.0);
    ReferenceRcSolver reference(flp, 45.0);
    // Wide grids run to the sweep cap, so they get fewer cases.
    const int seeds = columns >= 64 ? 1 : 12;
    for (int k = 0; k <= seeds; ++k) {
      SCOPED_TRACE(::testing::Message() << "case " << k);
      const std::vector<double> power = random_power(flp, rng);
      if (k > 0) {  // case 0 starts from ambient, the others mid-run
        const std::vector<double> seed = random_temps(flp, rng);
        solver.set_temperatures(seed);
        reference.set_temperatures(seed);
      }
      EXPECT_TRUE(SameBits(solver.steady_state(power), reference.steady_state(power)));
      const std::size_t sweeps = reference.sweeps();
      (sweeps % 2 == 1 ? odd_sweeps : even_sweeps) = true;
      // From ambient the index-order solve does not converge on the wide
      // grids, so the oracle covers the sweep cap too.
      if (k == 0 && columns >= 64) {
        EXPECT_EQ(sweeps, ReferenceRcSolver::kSteadyMaxSweeps);
      }
    }
  }
  // Solves end after odd and after even sweep counts, so a solver that
  // stops a sweep late on either parity (as one running sweeps in pairs
  // could) fails above.
  EXPECT_TRUE(odd_sweeps);
  EXPECT_TRUE(even_sweeps);
}

TEST(ThermalRcOracle, StepIsBitIdenticalToTheAdjacencyListStep) {
  std::mt19937_64 rng(7);
  for (std::size_t columns : kOracleColumns) {
    SCOPED_TRACE(::testing::Message() << columns << " columns");
    const ThermalFloorplan flp = floorplan_of(columns);
    ThermalRcSolver solver(flp, 45.0);
    ReferenceRcSolver reference(flp, 45.0);
    ASSERT_EQ(solver.stable_dt_s(), reference.stable_dt_s());
    const std::vector<double> seed = random_temps(flp, rng);
    solver.set_temperatures(seed);
    reference.set_temperatures(seed);
    // One substep, then intervals that subdivide.
    for (double dt : {0.25, 3.0, 40.0}) {
      const std::vector<double> power = random_power(flp, rng);
      solver.step(power, dt * solver.stable_dt_s());
      reference.step(power, dt * reference.stable_dt_s());
      EXPECT_TRUE(SameBits(solver.temperatures_c(), reference.temperatures_c()));
    }
  }
}

/// No bond and no TSVs: the stacked tiers of a one-column stack have no
/// conductance at all (g_sum == 0), so the steady solve keeps their seed.
TEST(ThermalRcOracle, IsolatedTiersMatchTheAdjacencyListToo) {
  ThermalStackParams stack;
  stack.k_bond_w_mk = 0.0;
  stack.tsvs_per_column = 0;
  const ThermalFloorplan flp = floorplan_of(1, stack);
  ASSERT_EQ(flp.vertical_g_w_k(0), 0.0);
  ThermalRcSolver solver(flp, 45.0);
  ReferenceRcSolver reference(flp, 45.0);
  ASSERT_EQ(solver.stable_dt_s(), reference.stable_dt_s());

  std::mt19937_64 rng(11);
  for (int k = 0; k < 4; ++k) {
    const std::vector<double> power = random_power(flp, rng);
    const std::vector<double> seed = random_temps(flp, rng);
    solver.set_temperatures(seed);
    reference.set_temperatures(seed);
    const std::vector<double> steady = solver.steady_state(power);
    EXPECT_TRUE(SameBits(steady, reference.steady_state(power)));
    EXPECT_EQ(steady[flp.tile_index(1, 0)], seed[flp.tile_index(1, 0)]);
    EXPECT_EQ(steady[flp.tile_index(2, 0)], seed[flp.tile_index(2, 0)]);

    solver.step(power, 5.0 * solver.stable_dt_s());
    reference.step(power, 5.0 * reference.stable_dt_s());
    EXPECT_TRUE(SameBits(solver.temperatures_c(), reference.temperatures_c()));
  }
}

// ---- leakage law -----------------------------------------------------------

TEST(ThermalLeakage, ScaleIsMonotoneAndOneAtReference) {
  // The law the fixed point applies to every tile's reference leakage.
  double prev = 0.0;
  for (double t = 25.0; t <= 110.0; t += 5.0) {
    const double s = leakage_temp_scale(t);
    EXPECT_GT(s, prev) << t;
    prev = s;
  }
  // Every power model quotes its leakage at the reference temperature.
  EXPECT_EQ(leakage_temp_scale(kLeakageRefTempC), 1.0);
}

// ---- governor --------------------------------------------------------------

TEST(ThermalGovernor, DemotesBanksFirstOnMotThenHoldsAndRestoresWithHysteresis) {
  thermal::ThermalGovernor gov(80.0, /*allow_bank_gating=*/true,
                               core::PowerState::full());

  // Below the ceiling: nothing happens.
  auto d = gov.decide(70.0);
  EXPECT_FALSE(d.reconfigure.has_value());
  EXPECT_FALSE(d.hold_cores);

  // Cross the ceiling: first rung is bank gating, not a hold.
  d = gov.decide(81.0);
  ASSERT_TRUE(d.reconfigure.has_value());
  EXPECT_EQ(d.reconfigure->active_banks(), 8u);
  EXPECT_EQ(d.reconfigure->active_cores(), 16u);
  EXPECT_FALSE(d.hold_cores);
  EXPECT_EQ(gov.stats().bank_gate_events, 1u);

  // Still hot: escalate to core holds.
  d = gov.decide(82.0);
  EXPECT_FALSE(d.reconfigure.has_value());
  EXPECT_TRUE(d.hold_cores);
  EXPECT_EQ(gov.stats().core_hold_events, 1u);

  // In the hysteresis band (80 - 5 < T < 80): keep holding.
  d = gov.decide(77.0);
  EXPECT_TRUE(d.hold_cores);

  // Cooled below ceiling - hysteresis: release the hold, banks stay gated.
  d = gov.decide(74.0);
  EXPECT_FALSE(d.hold_cores);
  EXPECT_FALSE(d.reconfigure.has_value());
  EXPECT_EQ(gov.level(), 1u);

  // A further cool interval restores the baseline banks.
  d = gov.decide(74.0);
  ASSERT_TRUE(d.reconfigure.has_value());
  EXPECT_EQ(d.reconfigure->active_banks(), 32u);
  EXPECT_EQ(gov.level(), 0u);
}

TEST(ThermalGovernor, PacketSwitchedFabricSkipsStraightToHolds) {
  thermal::ThermalGovernor gov(80.0, /*allow_bank_gating=*/false,
                               core::PowerState::full());
  const auto d = gov.decide(90.0);
  EXPECT_FALSE(d.reconfigure.has_value());
  EXPECT_TRUE(d.hold_cores);
  EXPECT_EQ(gov.stats().bank_gate_events, 0u);
}

TEST(ThermalGovernor, DutyCycleGuardForcesPeriodicProgress) {
  thermal::ThermalGovernor gov(80.0, /*allow_bank_gating=*/false,
                               core::PowerState::full());
  // Sustained heat: the first interval demotes to holds; after
  // kMaxHoldIntervals consecutive holds the guard forces one released
  // interval, then holding resumes.
  constexpr std::uint64_t kPeriod =
      thermal::ThermalGovernor::kMaxHoldIntervals + 1;
  std::size_t released = 0;
  for (std::uint64_t i = 0; i < 3 * kPeriod; ++i) {
    const bool hold = gov.decide(95.0).hold_cores;
    EXPECT_EQ(hold, i % kPeriod != kPeriod - 1) << "interval " << i;
    if (!hold) ++released;
  }
  EXPECT_EQ(released, 3u);
  EXPECT_EQ(gov.stats().duty_cycle_releases, released);
}

// ---- EnergyLedger delta API ------------------------------------------------

TEST(EnergyLedgerDelta, DeltaSinceReportsPerIntervalRates) {
  power::EnergyLedger ledger;
  ledger.add_dynamic(power::Component::kCore, 100.0);
  ledger.add_static(power::Component::kL2, 40.0);

  power::EnergyLedger snap = ledger;  // sample 1
  ledger.add_dynamic(power::Component::kCore, 60.0);
  ledger.add_dynamic(power::Component::kDram, 10.0);
  ledger.add_static(power::Component::kL2, 5.0);

  const power::EnergyLedger d = ledger.delta_since(snap);
  EXPECT_DOUBLE_EQ(d.dynamic_pj(power::Component::kCore), 60.0);
  EXPECT_DOUBLE_EQ(d.dynamic_pj(power::Component::kDram), 10.0);
  EXPECT_DOUBLE_EQ(d.static_pj(power::Component::kL2), 5.0);
  EXPECT_DOUBLE_EQ(d.component_pj(power::Component::kL2), 5.0);
  EXPECT_DOUBLE_EQ(d.dynamic_pj(power::Component::kL1), 0.0);

  // The interval's rate, as the thermal sampler takes it: pJ over 1 ns
  // cycles -> watts (60 pJ over 30 cycles = 2 W).
  EXPECT_DOUBLE_EQ(d.component_pj(power::Component::kCore) / 30.0, 2.0);

  // A fresh delta against the current state is all zeros.
  const power::EnergyLedger z = ledger.delta_since(ledger);
  EXPECT_DOUBLE_EQ(z.total_pj(), 0.0);
  for (auto c : {power::Component::kCore, power::Component::kL1,
                 power::Component::kL2, power::Component::kInterconnect,
                 power::Component::kDram}) {
    EXPECT_DOUBLE_EQ(z.component_pj(c), 0.0);
  }
}

// ---- end-to-end: thermal runs through the cluster --------------------------

cluster::SimResult thermal_run(const char* app, cluster::Fabric fabric,
                               double ambient_c, double ceiling_c,
                               cluster::SchedulerMode mode,
                               double scale = 0.02) {
  cluster::ClusterConfig cfg = cluster::make_paper_config(
      workload::profile_by_name(app), fabric, core::PowerState::full(),
      mem::DramPreset::kDdr3_200ns, scale, 42);
  cfg.scheduler = mode;
  cfg.thermal = thermal::ThermalConfig::from_envelope(
      thermal::ThermalEnvelope{true, ambient_c, ceiling_c});
  return cluster::Cluster(cfg).run();
}

TEST(ThermalCluster, SchedulersAgreeBitForBitIncludingThrottledRuns) {
  // One cool envelope and one that provokes governor action, on both the
  // reconfigurable MoT and a packet-switched baseline.
  struct Case {
    cluster::Fabric fabric;
    double ambient, ceiling;
  };
  const Case cases[] = {
      {cluster::Fabric::kMot, 45.0, 85.0},
      {cluster::Fabric::kMot, 60.0, 70.0},
      {cluster::Fabric::kTrueMesh3d, 60.0, 70.0},
  };
  for (const Case& c : cases) {
    const cluster::SimResult ev = thermal_run(
        "fft", c.fabric, c.ambient, c.ceiling, cluster::SchedulerMode::kEventDriven);
    const cluster::SimResult de = thermal_run(
        "fft", c.fabric, c.ambient, c.ceiling, cluster::SchedulerMode::kDenseTick);
    EXPECT_EQ(ev.cycles, de.cycles);
    EXPECT_EQ(ev.instructions, de.instructions);
    EXPECT_EQ(ev.thermal.samples, de.thermal.samples);
    EXPECT_EQ(ev.thermal.throttle_events, de.thermal.throttle_events);
    EXPECT_EQ(ev.thermal.throttled_cycles, de.thermal.throttled_cycles);
    EXPECT_EQ(ev.thermal.peak_c, de.thermal.peak_c);              // exact
    EXPECT_EQ(ev.thermal.steady_peak_c, de.thermal.steady_peak_c);
    EXPECT_EQ(ev.thermal.leakage_pj, de.thermal.leakage_pj);
    EXPECT_EQ(ev.energy.edp_energy_pj(), de.energy.edp_energy_pj());
  }
}

TEST(ThermalCluster, SchedulersAgreeWhenGovernorDecidesOnIdleTransport) {
  // Regression: a governor reconfiguration decided at a boundary where
  // the transport is *already idle* (compute phase, nothing in flight)
  // must apply in that same poll.  If completion waited for a later
  // poll, the event scheduler — seeing no component events — would only
  // look again at the next sampling boundary, a full interval after the
  // dense reference.  A short interval makes idle-at-boundary frequent.
  for (auto fabric : {cluster::Fabric::kMot, cluster::Fabric::kTrueMesh3d}) {
    cluster::SimResult results[2];
    int i = 0;
    for (auto mode : {cluster::SchedulerMode::kEventDriven,
                      cluster::SchedulerMode::kDenseTick}) {
      cluster::ClusterConfig cfg = cluster::make_paper_config(
          workload::profile_by_name("fft"), fabric, core::PowerState::full(),
          mem::DramPreset::kDdr3_200ns, 0.02, 42);
      cfg.scheduler = mode;
      cfg.thermal = thermal::ThermalConfig::from_envelope(
          thermal::ThermalEnvelope{true, 60.0, 68.0});
      cfg.thermal.sample_interval_cycles = 500;
      results[i++] = cluster::Cluster(cfg).run();
    }
    EXPECT_GT(results[0].thermal.throttle_events, 0u);
    EXPECT_EQ(results[0].cycles, results[1].cycles);
    EXPECT_EQ(results[0].thermal.throttled_cycles,
              results[1].thermal.throttled_cycles);
    EXPECT_EQ(results[0].thermal.peak_c, results[1].thermal.peak_c);
    EXPECT_EQ(results[0].energy.edp_energy_pj(),
              results[1].energy.edp_energy_pj());
  }
}

TEST(ThermalCluster, LeakageFeedbackIsMonotoneInAmbient) {
  const cluster::SimResult cool =
      thermal_run("fft", cluster::Fabric::kMot, 35.0, 1000.0,
                  cluster::SchedulerMode::kEventDriven);
  const cluster::SimResult warm =
      thermal_run("fft", cluster::Fabric::kMot, 55.0, 1000.0,
                  cluster::SchedulerMode::kEventDriven);
  // 75 °C ambient puts this package's leakage loop gain above one —
  // genuine thermal runaway, which must saturate finitely at the clamp
  // instead of overflowing, and still read as the hottest of the three.
  const cluster::SimResult runaway =
      thermal_run("fft", cluster::Fabric::kMot, 75.0, 1000.0,
                  cluster::SchedulerMode::kEventDriven);
  // Ceiling far above reach: identical execution, only leakage moves.
  ASSERT_EQ(cool.cycles, warm.cycles);
  ASSERT_EQ(warm.cycles, runaway.cycles);
  EXPECT_LT(cool.thermal.peak_c, warm.thermal.peak_c);
  EXPECT_LT(warm.thermal.peak_c, runaway.thermal.peak_c);
  EXPECT_LT(cool.thermal.leakage_pj, warm.thermal.leakage_pj);
  EXPECT_LT(warm.thermal.leakage_pj, runaway.thermal.leakage_pj);
  // And the delta vs. the temperature-independent model grows with it.
  EXPECT_LT(cool.thermal.leakage_delta_pj(), warm.thermal.leakage_delta_pj());
  EXPECT_LT(warm.thermal.leakage_delta_pj(), runaway.thermal.leakage_delta_pj());
  // Saturated runaway stays finite and visibly catastrophic.
  EXPECT_TRUE(std::isfinite(runaway.thermal.peak_c));
  EXPECT_TRUE(std::isfinite(runaway.thermal.leakage_pj));
  EXPECT_GT(runaway.thermal.peak_c, 120.0);
}

TEST(ThermalCluster, GovernorThrottlesHotEnvelopeAndStacksRunHotter) {
  const cluster::SimResult free_run =
      thermal_run("fft", cluster::Fabric::kMot, 60.0, 150.0,
                  cluster::SchedulerMode::kEventDriven);
  const cluster::SimResult capped =
      thermal_run("fft", cluster::Fabric::kMot, 60.0, 70.0,
                  cluster::SchedulerMode::kEventDriven);

  EXPECT_EQ(free_run.thermal.throttle_events, 0u);
  EXPECT_GT(capped.thermal.throttle_events, 0u);
  EXPECT_GT(capped.thermal.throttled_cycles, 0u);
  EXPECT_GT(capped.cycles, free_run.cycles);  // throttling costs time
  // The cap works: the governed run stays cooler than the free one.
  EXPECT_LT(capped.thermal.final_peak_c, free_run.thermal.final_peak_c);

  // Stacked tiers at or above the core die (cooled through it).
  ASSERT_EQ(free_run.thermal.peak_layer_c.size(), 3u);
  EXPECT_GE(free_run.thermal.peak_layer_c[1] + 1e-9,
            free_run.thermal.peak_layer_c[0]);
  EXPECT_GE(free_run.thermal.peak_layer_c[2] + 1e-9,
            free_run.thermal.peak_layer_c[1]);
}

TEST(ThermalCluster, DisabledThermalLeavesResultsUntouched) {
  cluster::ClusterConfig cfg = cluster::make_paper_config(
      workload::profile_by_name("fft"), cluster::Fabric::kMot,
      core::PowerState::full(), mem::DramPreset::kDdr3_200ns, 0.02, 42);
  const cluster::SimResult plain = cluster::Cluster(cfg).run();
  EXPECT_FALSE(plain.thermal.enabled);
  EXPECT_EQ(plain.thermal.samples, 0u);

  // A thermal run with an unreachable ceiling must not perturb timing.
  const cluster::SimResult with_thermal =
      thermal_run("fft", cluster::Fabric::kMot, 45.0, 1000.0,
                  cluster::SchedulerMode::kEventDriven);
  EXPECT_EQ(plain.cycles, with_thermal.cycles);
  EXPECT_EQ(plain.instructions, with_thermal.instructions);
}

// ---- the steady solver's sweep cap, made visible ---------------------------

/// One warm-started interval on a die of `columns` columns, with the
/// 16-column die's uniform per-layer power (0.08 / 0.03 / 0.02 W per tile)
/// spread so the die still dissipates 2.08 W.  One leakage iteration per
/// fixed point keeps it to two solves: the warm start from ambient, and
/// summary()'s at run-average power.
thermal::ThermalSummary spread_power_summary(std::size_t columns) {
  thermal::ThermalConfig cfg =
      thermal::ThermalConfig::from_envelope(thermal::ThermalEnvelope{true, 45.0, 85.0});
  cfg.max_leakage_iters = 1;
  phys::FloorplanParams fp;
  fp.max_cores = columns;
  thermal::ThermalModel model(cfg, fp, phys::default_technology());
  const ThermalFloorplan& flp = model.floorplan();
  EXPECT_EQ(flp.columns(), columns);
  thermal::ThermalSources src = model.make_sources();
  const double per_tile_w[] = {0.08, 0.03, 0.02};
  for (std::size_t layer = 0; layer < flp.layers(); ++layer) {
    for (std::size_t col = 0; col < columns; ++col) {
      src.dynamic_w[flp.tile_index(layer, col)] =
          per_tile_w[layer] * 16.0 / static_cast<double>(columns);
    }
  }
  model.advance(src, 10000);
  return model.summary();
}

TEST(ThermalModel, CountsSolvesThatStopAtTheSweepCap) {
  // From ambient a 128-column solve ends at the cap, 3.6 °C short of the
  // closed-form peak; 32 columns converge in about 11 600 sweeps.
  EXPECT_GT(spread_power_summary(128).unconverged_solves, 0u);
  EXPECT_EQ(spread_power_summary(32).unconverged_solves, 0u);
}

TEST(ThermalCluster, UnconvergedSolvesReachTheResultTheJsonAndStderr) {
  // A thermal run at 64 cores (64 columns) warm-starts from ambient into
  // the cap; the paper's 16-column die converges.
  auto run = [](const core::PowerState& state, std::string* err) {
    cluster::ClusterConfig cfg = cluster::make_paper_config(
        workload::profile_by_name("fft"), cluster::Fabric::kMot, state,
        mem::DramPreset::kDdr3_200ns, 0.002, 42);
    cfg.thermal = thermal::ThermalConfig::from_envelope(
        thermal::ThermalEnvelope{true, 45.0, 85.0});
    ::testing::internal::CaptureStderr();
    cluster::SimResult r = cluster::Cluster(cfg).run();
    *err = ::testing::internal::GetCapturedStderr();
    return r;
  };
  sim::ScenarioRun scenario;
  scenario.app = "fft";
  scenario.thermal = thermal::ThermalEnvelope{true, 45.0, 85.0};

  std::string err;
  const cluster::SimResult wide =
      run(core::PowerState("Full64x128", 64, 64, 128, 128), &err);
  ASSERT_GT(wide.thermal.unconverged_solves, 0u);
  EXPECT_EQ(err, "warning: " + std::to_string(wide.thermal.unconverged_solves) +
                     " thermal steady-state solve(s) stopped at the 20000-sweep "
                     "cap unconverged on a floorplan of 64 columns; the warm "
                     "start and thermal_steady_peak_c are approximate\n");
  scenario.state = core::PowerState("Full64x128", 64, 64, 128, 128);
  EXPECT_NE(sim::run_metrics_json(scenario, wide)
                .find("\"thermal_unconverged_solves\": " +
                      std::to_string(wide.thermal.unconverged_solves)),
            std::string::npos);

  const cluster::SimResult paper = run(core::PowerState::full(), &err);
  EXPECT_EQ(paper.thermal.unconverged_solves, 0u);
  EXPECT_EQ(err, "");
  scenario.state = core::PowerState::full();
  EXPECT_EQ(sim::run_metrics_json(scenario, paper).find("unconverged"),
            std::string::npos);
}

// ---- thermal-aware advisor layer -------------------------------------------

TEST(ThermalAdvisor, DemotesBanksWhenTheProfileRanThrottled) {
  // A capacity-hungry, scalable profile: big resident footprint (the
  // bank guard says keep 32 banks), symmetric low spin (keep 16 cores).
  cluster::SimResult profile;
  profile.cycles = 1'000'000;
  profile.dram_latency_ns = 200.0;
  profile.cores.assign(16, cpu::CoreStats{});
  profile.l2_resident_lines = 20'000;  // 640 KB >> the 512 KB 8-bank guard

  const cluster::StateRecommendation base =
      cluster::recommend_power_state(profile);
  ASSERT_FALSE(base.gate_banks);
  ASSERT_FALSE(base.gate_cores);

  // The same profile measured against a violated thermal envelope: the
  // thermal layer overrides the footprint guard for headroom.
  profile.thermal.enabled = true;
  profile.thermal.ceiling_c = 70.0;
  profile.thermal.peak_c = 72.5;
  profile.thermal.throttle_events = 3;
  profile.thermal.throttled_cycles = 200'000;
  const cluster::StateRecommendation with_thermal =
      cluster::recommend_power_state_thermal(profile);
  EXPECT_TRUE(with_thermal.gate_banks);
  EXPECT_EQ(with_thermal.state.active_banks(), 8u);
  EXPECT_EQ(with_thermal.state.active_cores(), 16u);
  EXPECT_NE(with_thermal.rationale.find("thermal"), std::string::npos);

  // A cool thermal summary passes the base recommendation through.
  profile.thermal.peak_c = 55.0;
  profile.thermal.throttle_events = 0;
  profile.thermal.throttled_cycles = 0;
  const cluster::StateRecommendation cool_rec =
      cluster::recommend_power_state_thermal(profile);
  EXPECT_FALSE(cool_rec.gate_banks);
  EXPECT_EQ(cool_rec.state.active_banks(), 32u);

  // And an end-to-end throttled run feeds the layer for real.
  const cluster::SimResult hot =
      thermal_run("fft", cluster::Fabric::kMot, 60.0, 70.0,
                  cluster::SchedulerMode::kEventDriven);
  ASSERT_GT(hot.thermal.throttle_events, 0u);
  const cluster::StateRecommendation hot_rec =
      cluster::recommend_power_state_thermal(hot);
  EXPECT_TRUE(hot_rec.gate_banks);
}

}  // namespace
}  // namespace mot3d
