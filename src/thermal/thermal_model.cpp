#include "thermal/thermal_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/leakage.hpp"

namespace mot3d::thermal {

namespace {

/// Thermal seconds per simulated second (see the header comment).
constexpr double kTimeScale = 2000.0;
/// Leakage fixed-point convergence, °C.
constexpr double kLeakageTolC = 1e-6;
/// Temperature cap for leakage evaluation.  Above roughly 60-65 °C
/// ambient this package's leakage loop gain exceeds one — genuine thermal
/// runaway.  The exponential is evaluated at min(T, cap) so a runaway
/// saturates to a finite (still obviously catastrophic) temperature
/// instead of overflowing; the reported peaks expose it.
constexpr double kLeakageClampC = 150.0;

}  // namespace

ThermalModel::ThermalModel(const ThermalConfig& cfg,
                           const phys::FloorplanParams& fp,
                           const phys::TechnologyParams& tech)
    : cfg_(cfg),
      flp_(fp, tech, cfg.stack),
      solver_(flp_, cfg.ambient_c),
      peak_layer_c_(flp_.layers(), cfg.ambient_c),
      peak_c_(cfg.ambient_c) {
  const std::size_t n = flp_.tile_count();
  dynamic_pj_accum_.assign(n, 0.0);
  core_leak_ref_pj_accum_.assign(n, 0.0);
  l2_leak_ref_pj_accum_.assign(n, 0.0);
  icn_leak_ref_pj_accum_.assign(n, 0.0);
}

ThermalSources ThermalModel::make_sources() const {
  ThermalSources src;
  const std::size_t n = flp_.tile_count();
  src.dynamic_w.assign(n, 0.0);
  src.core_leak_ref_w.assign(n, 0.0);
  src.l2_leak_ref_w.assign(n, 0.0);
  src.icn_leak_ref_w.assign(n, 0.0);
  return src;
}

double ThermalModel::tile_leak_w(const ThermalSources& src, std::size_t i,
                                 double t_c) const {
  // The one exponential law, applied to the per-tile reference-temperature
  // leakage.  The clamp keeps genuine thermal runaway finite.
  const double scale = leakage_temp_scale(std::min(t_c, kLeakageClampC));
  return (src.core_leak_ref_w[i] + src.l2_leak_ref_w[i] + src.icn_leak_ref_w[i]) *
         scale;
}

void ThermalModel::advance(const ThermalSources& src, Cycle cycles) {
  const std::size_t n = flp_.tile_count();
  assert(src.dynamic_w.size() == n);
  if (cycles == 0) return;

  if (!warmed_) {
    solver_.set_temperatures(steady_fixed_point(src, unconverged_solves_));
    warmed_ = true;
  }

  const double dt_s = static_cast<double>(cycles) * 1e-9 * kTimeScale;
  const std::vector<double> start = solver_.temperatures_c();
  std::vector<double> end_estimate = start;
  std::vector<double> power(n, 0.0);

  for (std::size_t iter = 0; iter < cfg_.max_leakage_iters; ++iter) {
    for (std::size_t i = 0; i < n; ++i) {
      power[i] = src.dynamic_w[i] + tile_leak_w(src, i, end_estimate[i]);
    }
    solver_.set_temperatures(start);
    solver_.step(power, dt_s);
    const std::vector<double>& end = solver_.temperatures_c();
    double max_delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      max_delta = std::max(max_delta, std::abs(end[i] - end_estimate[i]));
    }
    end_estimate = end;
    if (max_delta < kLeakageTolC) break;
  }

  // Static energy of the interval at the converged temperatures (the
  // trapezoid start/end distinction is below the fixed-point tolerance).
  // mW * cycle(ns) == pJ; W * cycles == 1e3 pJ.
  const double cyc = static_cast<double>(cycles);
  double core_w = 0.0, l2_w = 0.0, icn_w = 0.0, ref_w = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double scale =
        leakage_temp_scale(std::min(end_estimate[i], kLeakageClampC));
    core_w += src.core_leak_ref_w[i] * scale;
    l2_w += src.l2_leak_ref_w[i] * scale;
    icn_w += src.icn_leak_ref_w[i] * scale;
    ref_w += src.core_leak_ref_w[i] + src.l2_leak_ref_w[i] + src.icn_leak_ref_w[i];

    dynamic_pj_accum_[i] += src.dynamic_w[i] * cyc * 1e3;
    core_leak_ref_pj_accum_[i] += src.core_leak_ref_w[i] * cyc * 1e3;
    l2_leak_ref_pj_accum_[i] += src.l2_leak_ref_w[i] * cyc * 1e3;
    icn_leak_ref_pj_accum_[i] += src.icn_leak_ref_w[i] * cyc * 1e3;
  }
  core_static_pj_ += core_w * cyc * 1e3;
  l2_static_pj_ += l2_w * cyc * 1e3;
  icn_static_pj_ += icn_w * cyc * 1e3;
  baseline_static_pj_ += ref_w * cyc * 1e3;

  total_cycles_ += cycles;
  ++samples_;
  for (std::size_t layer = 0; layer < flp_.layers(); ++layer) {
    peak_layer_c_[layer] =
        std::max(peak_layer_c_[layer], solver_.peak_layer_c(layer));
  }
  peak_c_ = std::max(peak_c_, solver_.peak_c());
}

std::vector<double> ThermalModel::steady_fixed_point(
    const ThermalSources& src, std::uint64_t& unconverged) const {
  const std::size_t n = flp_.tile_count();
  std::vector<double> temps = solver_.temperatures_c();
  std::vector<double> power(n, 0.0);
  for (std::size_t iter = 0; iter < cfg_.max_leakage_iters; ++iter) {
    for (std::size_t i = 0; i < n; ++i) {
      power[i] = src.dynamic_w[i] + tile_leak_w(src, i, temps[i]);
    }
    bool converged = false;
    const std::vector<double> next = solver_.steady_state(power, &converged);
    if (!converged) ++unconverged;
    double max_delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      max_delta = std::max(max_delta, std::abs(next[i] - temps[i]));
    }
    temps = next;
    if (max_delta < kLeakageTolC) break;
  }
  return temps;
}

ThermalSummary ThermalModel::summary() const {
  ThermalSummary s;
  s.enabled = cfg_.enabled;
  s.ambient_c = cfg_.ambient_c;
  s.ceiling_c = cfg_.ceiling_c;
  s.peak_layer_c = peak_layer_c_;
  s.peak_c = peak_c_;
  s.final_peak_c = solver_.peak_c();
  s.samples = samples_;
  s.unconverged_solves = unconverged_solves_;
  s.leakage_pj = core_static_pj_ + l2_static_pj_ + icn_static_pj_;
  s.leakage_ref_pj = baseline_static_pj_;

  // Steady state at the run-average power mix.
  if (total_cycles_ > 0) {
    ThermalSources avg = make_sources();
    const double cyc = static_cast<double>(total_cycles_);
    for (std::size_t i = 0; i < flp_.tile_count(); ++i) {
      avg.dynamic_w[i] = dynamic_pj_accum_[i] / cyc * 1e-3;
      avg.core_leak_ref_w[i] = core_leak_ref_pj_accum_[i] / cyc * 1e-3;
      avg.l2_leak_ref_w[i] = l2_leak_ref_pj_accum_[i] / cyc * 1e-3;
      avg.icn_leak_ref_w[i] = icn_leak_ref_pj_accum_[i] / cyc * 1e-3;
    }
    const std::vector<double> steady =
        steady_fixed_point(avg, s.unconverged_solves);
    double m = cfg_.ambient_c;
    for (double t : steady) m = std::max(m, t);
    s.steady_peak_c = m;
  } else {
    s.steady_peak_c = cfg_.ambient_c;
  }
  return s;
}

}  // namespace mot3d::thermal
