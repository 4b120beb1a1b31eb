// Transient 3-D compact thermal model: a HotSpot-style RC network over the
// floorplan's tile grid, solved by explicit (forward-Euler) stepping with a
// stability-checked time step, plus a deterministic steady-state solver.
//
// Each tile is one node with a thermal capacitance C_i and conductances
//   * laterally to its column neighbours within a layer,
//   * vertically to the tiles above/below (bond layer + TSV copper),
//   * from the core die into the sink (the only path to ambient).
// The solver keeps the grid's own conductances: one lateral value per
// layer, one vertical value per layer interface and the sink on layer 0.
//
// dT_i/dt = (P_i + sum_j G_ij (T_j - T_i) + G_sink_i (T_amb - T_i)) / C_i
//
// Forward Euler is stable iff dt < C_i / sum(G_i) for every node; step()
// subdivides any requested interval into substeps below that bound times a
// safety factor, so callers can hand it scheduler-sized intervals without
// thinking about stiffness.  All arithmetic is straight double evaluation
// in a fixed order — results are bit-identical across schedulers and
// thread counts, which the golden suite relies on.
//
// steady_state() is Gauss-Seidel in tile-index order, evaluated along
// wavefronts (layer + column = const).  The reordering keeps every read
// an index-order sweep makes, so it returns the same doubles after the
// same number of sweeps (DESIGN.md "RC solver").
#pragma once

#include <cstddef>
#include <vector>

#include "thermal/floorplan.hpp"

namespace mot3d::thermal {

class ThermalRcSolver {
 public:
  /// Builds the RC network from the floorplan; every tile starts at
  /// `ambient_c`.
  ThermalRcSolver(const ThermalFloorplan& flp, double ambient_c);

  /// Largest forward-Euler step that is stable for this network, seconds
  /// (min_i C_i / sum(G_i), before the safety factor).
  double stable_dt_s() const { return stable_dt_s_; }

  /// Advance the transient solution by `dt_s` seconds with per-tile heat
  /// input `power_w` (W, one per tile), internally subdividing into
  /// stability-bounded substeps.
  void step(const std::vector<double>& power_w, double dt_s);

  /// Steady-state temperatures for constant `power_w`, by Gauss-Seidel
  /// sweeps from the transient state to a fixed tolerance (deterministic
  /// order and sweep count); does not modify the transient state.  A solve
  /// that reaches kSteadyMaxSweeps stops there unconverged and says so
  /// through `converged` when given: on floorplans of 64 columns and wider
  /// a solve from ambient ends short of the steady state.
  std::vector<double> steady_state(const std::vector<double>& power_w,
                                   bool* converged = nullptr) const;
  /// Sweeps after which steady_state() stops, converged or not.
  static constexpr std::size_t kSteadyMaxSweeps = 20000;

  /// Replace the transient state (e.g. warm-start from a steady solve).
  void set_temperatures(const std::vector<double>& temps_c);

  const std::vector<double>& temperatures_c() const { return temp_; }
  double tile_c(std::size_t i) const { return temp_[i]; }
  double peak_c() const;
  double peak_layer_c(std::size_t layer) const;

 private:
  std::size_t layers_;
  std::size_t columns_;
  double ambient_c_;
  double stable_dt_s_;
  std::vector<double> lateral_g_;   ///< per layer: G between column neighbours, W/K
  std::vector<double> vertical_g_;  ///< per interface: G from layer l to l+1, W/K
  double sink_g_;                   ///< G of each core-die tile to ambient, W/K
  std::vector<double> cap_;         ///< C_i, J/K
  std::vector<double> g_sum_;       ///< sum of all conductances at i
  std::vector<double> temp_;        ///< transient state, °C
  std::vector<double> scratch_;     ///< step() double-buffer
};

}  // namespace mot3d::thermal
