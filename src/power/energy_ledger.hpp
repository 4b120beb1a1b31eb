// Energy accounting and energy-delay product (EDP).
//
// Mirrors the paper's metric: total energy of cores + L2 cache +
// interconnect over a run, multiplied by execution time.  DRAM energy is
// tracked but excluded from EDP, matching the paper ("to estimate power
// consumption of core, L2 cache, and interconnect we used [19][13][20]").
#pragma once

#include <array>

#include "common/types.hpp"

namespace mot3d::power {

/// Components whose energy the ledger distinguishes.
enum class Component {
  kCore,
  kL1,
  kL2,
  kInterconnect,
  kDram,
};

inline const char* component_name(Component c) {
  switch (c) {
    case Component::kCore: return "core";
    case Component::kL1: return "l1";
    case Component::kL2: return "l2";
    case Component::kInterconnect: return "interconnect";
    case Component::kDram: return "dram";
  }
  return "?";
}

/// Per-run energy totals in picojoules, split dynamic vs. static.
class EnergyLedger {
 public:
  void add_dynamic(Component c, double pj) { dynamic_pj_[index(c)] += pj; }
  void add_static(Component c, double pj) { static_pj_[index(c)] += pj; }

  double dynamic_pj(Component c) const { return dynamic_pj_[index(c)]; }
  double static_pj(Component c) const { return static_pj_[index(c)]; }
  double component_pj(Component c) const { return dynamic_pj(c) + static_pj(c); }

  /// Total energy counted toward EDP (everything except DRAM), pJ.
  double edp_energy_pj() const {
    double sum = 0.0;
    for (Component c : {Component::kCore, Component::kL1, Component::kL2,
                        Component::kInterconnect}) {
      sum += component_pj(c);
    }
    return sum;
  }

  /// Total including DRAM, pJ.
  double total_pj() const { return edp_energy_pj() + component_pj(Component::kDram); }

  /// EDP in picojoule-seconds for a run of `cycles` 1 ns cycles.
  double edp_pj_s(Cycle cycles) const {
    return edp_energy_pj() * static_cast<double>(cycles) * 1e-9;
  }

  /// Average power over `cycles` (EDP components only), in watts.
  double average_power_w(Cycle cycles) const {
    if (cycles == 0) return 0.0;
    return edp_energy_pj() * 1e-12 / (static_cast<double>(cycles) * 1e-9);
  }

  /// What this ledger accumulated since an `earlier` snapshot of the same
  /// accumulation, per component — the "what happened since the last
  /// sample" view the thermal sampler needs.  The caller keeps the
  /// previous snapshot and asks for the delta each sampling interval.
  EnergyLedger delta_since(const EnergyLedger& earlier) const {
    EnergyLedger d;
    for (std::size_t i = 0; i < kNumComponents; ++i) {
      d.dynamic_pj_[i] = dynamic_pj_[i] - earlier.dynamic_pj_[i];
      d.static_pj_[i] = static_pj_[i] - earlier.static_pj_[i];
    }
    return d;
  }

 private:
  static constexpr std::size_t kNumComponents = 5;
  static std::size_t index(Component c) { return static_cast<std::size_t>(c); }

  std::array<double, kNumComponents> dynamic_pj_{};
  std::array<double, kNumComponents> static_pj_{};
};

}  // namespace mot3d::power
