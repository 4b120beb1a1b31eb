// The thermal subsystem's front door: couples the floorplan-derived RC
// network to the power models and closes the power -> temperature ->
// leakage -> power loop.
//
// Each scheduler sampling interval the cluster hands over the per-tile
// *dynamic* power (from power::EnergyLedger deltas) and the per-tile
// *reference-temperature* leakage of cores / L2 banks / interconnect.
// advance() then iterates leakage and temperature to a fixed point —
// leakage is evaluated at the interval-end temperature estimate through
// the one exponential law (common/leakage.hpp), the RC network is
// re-stepped from the saved interval-start state, and the loop repeats
// until the end temperatures stop moving.  The converged, temperature-
// scaled leakage energies are accumulated per component next to a
// temperature-independent baseline, so runs can report the leakage-energy
// delta the 3-D stack actually costs.
//
// Thermal time scale: RC time constants are milliseconds while scaled-down
// traces simulate micro-seconds, so the thermal clock runs kTimeScale
// (thermal_model.cpp) times faster than simulated time (the synthetic
// traces stand in for full-length SPLASH-2 runs; the stretch restores the
// thermal trajectory of the full run).  Energy bookkeeping always uses
// *simulated* time — only the RC dynamics are accelerated.
//
// The first interval warm-starts the tiles from the steady state of its
// power (HotSpot's "-init steady" convention), so short runs report
// meaningful temperatures instead of a cold start.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "phys/geometry.hpp"
#include "phys/technology.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/rc_solver.hpp"

namespace mot3d::thermal {

/// One cell of a scenario's thermal axis (ambient x ceiling, and whether
/// the subsystem runs at all).  Everything else uses ThermalConfig
/// defaults.
struct ThermalEnvelope {
  bool enabled = false;
  double ambient_c = 45.0;
  double ceiling_c = 80.0;

  bool operator==(const ThermalEnvelope&) const = default;
};

/// Full configuration of the thermal subsystem (ClusterConfig::thermal).
struct ThermalConfig {
  bool enabled = false;
  double ambient_c = 45.0;
  double ceiling_c = 80.0;       ///< governor throttling threshold
  Cycle sample_interval_cycles = 10'000;
  std::size_t max_leakage_iters = 12;
  ThermalStackParams stack;

  static ThermalConfig from_envelope(const ThermalEnvelope& env) {
    ThermalConfig cfg;
    cfg.enabled = env.enabled;
    cfg.ambient_c = env.ambient_c;
    cfg.ceiling_c = env.ceiling_c;
    return cfg;
  }
};

/// Per-tile power inputs for one sampling interval.  All vectors are
/// tile-indexed (ThermalFloorplan::tile_index) and sized tile_count().
/// Leakage vectors carry the *reference-temperature* values; the model
/// applies the temperature scaling itself inside the fixed point.
struct ThermalSources {
  std::vector<double> dynamic_w;
  std::vector<double> core_leak_ref_w;
  std::vector<double> l2_leak_ref_w;
  std::vector<double> icn_leak_ref_w;
};

/// Everything a run reports about its thermal trajectory (SimResult).
struct ThermalSummary {
  bool enabled = false;
  double ambient_c = 0.0;
  double ceiling_c = 0.0;
  std::vector<double> peak_layer_c;  ///< max over the run, per layer
  double peak_c = 0.0;               ///< max over the run, all layers
  double final_peak_c = 0.0;         ///< hottest tile at run end
  double steady_peak_c = 0.0;        ///< steady state at run-average power
  std::uint64_t samples = 0;
  /// Steady-state solves (warm start and steady_peak_c) that stopped at
  /// the sweep cap unconverged: non-zero means those two are approximate.
  std::uint64_t unconverged_solves = 0;

  // Governor activity (filled by the cluster).
  std::uint64_t throttle_events = 0;   ///< demotions (bank gates + holds)
  std::uint64_t bank_gate_events = 0;
  std::uint64_t core_hold_events = 0;
  std::uint64_t throttled_cycles = 0;  ///< cycles with cores held

  // Temperature-dependent static energy vs. the flat-temperature model.
  double leakage_pj = 0.0;       ///< converged, temperature-scaled
  double leakage_ref_pj = 0.0;   ///< same intervals at reference temperature
  double leakage_delta_pj() const { return leakage_pj - leakage_ref_pj; }
};

class ThermalModel {
 public:
  ThermalModel(const ThermalConfig& cfg, const phys::FloorplanParams& fp,
               const phys::TechnologyParams& tech);

  const ThermalFloorplan& floorplan() const { return flp_; }
  const ThermalRcSolver& solver() const { return solver_; }

  ThermalSources make_sources() const;

  /// Advance one sampling interval of `cycles` simulated cycles; iterates
  /// the leakage/temperature fixed point and accumulates static energy.
  void advance(const ThermalSources& src, Cycle cycles);

  /// Hottest tile right now, °C.
  double peak_c() const { return solver_.peak_c(); }

  /// Sampling intervals advanced so far.
  std::uint64_t samples() const { return samples_; }

  /// Per-component temperature-scaled static energy so far, pJ.
  double core_static_pj() const { return core_static_pj_; }
  double l2_static_pj() const { return l2_static_pj_; }
  double icn_static_pj() const { return icn_static_pj_; }

  /// Temperature, peak and leakage bookkeeping for the final report;
  /// computes the steady-state solve at run-average power.
  ThermalSummary summary() const;

 private:
  /// Leakage power of tile `i` at temperature `t_c`, W.
  double tile_leak_w(const ThermalSources& src, std::size_t i, double t_c) const;

  /// Steady-state temperatures under `src` with the leakage fixed point.
  /// Each iteration is one ThermalRcSolver::steady_state() solve (the
  /// wavefront Gauss-Seidel, DESIGN.md "RC solver"), seeded from the
  /// transient state rather than the previous iterate; at the warm start
  /// that state is ambient, so every iteration pays a full solve.  Adds
  /// the solves that stopped at the sweep cap to `unconverged`.
  std::vector<double> steady_fixed_point(const ThermalSources& src,
                                         std::uint64_t& unconverged) const;

  ThermalConfig cfg_;
  ThermalFloorplan flp_;
  ThermalRcSolver solver_;
  bool warmed_ = false;

  std::uint64_t samples_ = 0;
  std::uint64_t unconverged_solves_ = 0;  ///< warm start's (advance())
  Cycle total_cycles_ = 0;
  std::vector<double> peak_layer_c_;
  double peak_c_;

  // Run totals for the steady-state solve at average power.
  std::vector<double> dynamic_pj_accum_;
  std::vector<double> core_leak_ref_pj_accum_;
  std::vector<double> l2_leak_ref_pj_accum_;
  std::vector<double> icn_leak_ref_pj_accum_;

  double core_static_pj_ = 0.0;
  double l2_static_pj_ = 0.0;
  double icn_static_pj_ = 0.0;
  double baseline_static_pj_ = 0.0;
};

}  // namespace mot3d::thermal
