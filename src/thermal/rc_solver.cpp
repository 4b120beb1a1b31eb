#include "thermal/rc_solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace mot3d::thermal {

namespace {
/// Fraction of the stability bound actually used per substep.
constexpr double kStabilitySafety = 0.5;
/// Gauss-Seidel convergence: max per-sweep temperature change, °C.
constexpr double kSteadyTolC = 1e-9;
}  // namespace

ThermalRcSolver::ThermalRcSolver(const ThermalFloorplan& flp, double ambient_c)
    : layers_(flp.layers()),
      columns_(flp.columns()),
      ambient_c_(ambient_c),
      sink_g_(flp.sink_g_w_k()) {
  const std::size_t n = flp.tile_count();
  for (std::size_t layer = 0; layer < layers_; ++layer) {
    lateral_g_.push_back(flp.lateral_g_w_k(layer));
    if (layer + 1 < layers_) vertical_g_.push_back(flp.vertical_g_w_k(layer));
  }
  cap_.resize(n);
  for (std::size_t i = 0; i < n; ++i) cap_[i] = flp.tiles()[i].capacitance_j_k;
  // Every loop over a tile's neighbours takes them in this order: left,
  // right, below, above.
  g_sum_.assign(n, 0.0);
  for (std::size_t layer = 0, i = 0; layer < layers_; ++layer) {
    for (std::size_t col = 0; col < columns_; ++col, ++i) {
      if (col > 0) g_sum_[i] += lateral_g_[layer];
      if (col + 1 < columns_) g_sum_[i] += lateral_g_[layer];
      if (layer > 0) g_sum_[i] += vertical_g_[layer - 1];
      if (layer + 1 < layers_) g_sum_[i] += vertical_g_[layer];
      if (layer == 0) g_sum_[i] += sink_g_;
    }
  }
  temp_.assign(n, ambient_c_);
  scratch_.assign(n, ambient_c_);

  stable_dt_s_ = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (g_sum_[i] > 0.0) stable_dt_s_ = std::min(stable_dt_s_, cap_[i] / g_sum_[i]);
  }
}

void ThermalRcSolver::step(const std::vector<double>& power_w, double dt_s) {
  assert(power_w.size() == cap_.size());
  if (dt_s <= 0.0) return;
  const double max_sub = kStabilitySafety * stable_dt_s_;
  const auto substeps =
      static_cast<std::size_t>(std::max(1.0, std::ceil(dt_s / max_sub)));
  const double dt_sub = dt_s / static_cast<double>(substeps);

  for (std::size_t s = 0; s < substeps; ++s) {
    for (std::size_t layer = 0, i = 0; layer < layers_; ++layer) {
      const double sink_g = layer == 0 ? sink_g_ : 0.0;
      for (std::size_t col = 0; col < columns_; ++col, ++i) {
        const double t = temp_[i];
        double flow_w = power_w[i] + sink_g * (ambient_c_ - t);
        if (col > 0) flow_w += lateral_g_[layer] * (temp_[i - 1] - t);
        if (col + 1 < columns_) flow_w += lateral_g_[layer] * (temp_[i + 1] - t);
        if (layer > 0) flow_w += vertical_g_[layer - 1] * (temp_[i - columns_] - t);
        if (layer + 1 < layers_) flow_w += vertical_g_[layer] * (temp_[i + columns_] - t);
        scratch_[i] = t + dt_sub * flow_w / cap_[i];
      }
    }
    temp_.swap(scratch_);
  }
}

std::vector<double> ThermalRcSolver::steady_state(
    const std::vector<double>& power_w, bool* converged) const {
  assert(power_w.size() == cap_.size());
  // Each tile's sweep-invariant term, P + G_sink * T_amb: the product and
  // sum a sweep computes first, hoisted out of the sweeps.
  std::vector<double> source_w(cap_.size());
  for (std::size_t layer = 0, i = 0; layer < layers_; ++layer) {
    const double sink_g = layer == 0 ? sink_g_ : 0.0;
    for (std::size_t col = 0; col < columns_; ++col, ++i) {
      source_w[i] = power_w[i] + sink_g * ambient_c_;
    }
  }
  // Gauss-Seidel in tile-index order, evaluated along wavefronts: step s
  // of a sweep relaxes the tiles with layer + col == s.  In index order a
  // tile reads this sweep's values of its lower neighbours (left, below)
  // and the previous sweep's of its higher ones (right, above).  Those
  // lie on wavefronts s - 1 and s + 1, so relaxing the wavefronts in
  // order, in place, keeps every read, and the tiles of one wavefront
  // (one per layer) are independent: the layers' dependency chains run
  // side by side instead of one after another.
  // Seed from the transient state: close to the answer during a run.
  std::vector<double> t = temp_;
  const std::size_t wavefronts = columns_ + layers_ - 1;
  if (converged != nullptr) *converged = false;
  for (std::size_t sweep = 0; sweep < kSteadyMaxSweeps; ++sweep) {
    double max_delta = 0.0;
    for (std::size_t s = 0; s < wavefronts; ++s) {
      for (std::size_t layer = 0; layer < layers_; ++layer) {
        // While s < layer the unsigned difference wraps above columns_,
        // so this skips it as it skips a column past the last.
        const std::size_t col = s - layer;
        if (col >= columns_) continue;
        const std::size_t i = layer * columns_ + col;
        if (g_sum_[i] <= 0.0) continue;  // isolated node: keep its seed
        double num = source_w[i];
        if (col > 0) num += lateral_g_[layer] * t[i - 1];
        if (col + 1 < columns_) num += lateral_g_[layer] * t[i + 1];
        if (layer > 0) num += vertical_g_[layer - 1] * t[i - columns_];
        if (layer + 1 < layers_) num += vertical_g_[layer] * t[i + columns_];
        const double next = num / g_sum_[i];
        max_delta = std::max(max_delta, std::abs(next - t[i]));
        t[i] = next;
      }
    }
    if (max_delta < kSteadyTolC) {
      if (converged != nullptr) *converged = true;
      break;
    }
  }
  return t;
}

void ThermalRcSolver::set_temperatures(const std::vector<double>& temps_c) {
  assert(temps_c.size() == temp_.size());
  temp_ = temps_c;
}

double ThermalRcSolver::peak_c() const {
  double m = ambient_c_;
  for (double t : temp_) m = std::max(m, t);
  return m;
}

double ThermalRcSolver::peak_layer_c(std::size_t layer) const {
  double m = ambient_c_;
  for (std::size_t col = 0; col < columns_; ++col) {
    m = std::max(m, temp_[layer * columns_ + col]);
  }
  return m;
}

}  // namespace mot3d::thermal
