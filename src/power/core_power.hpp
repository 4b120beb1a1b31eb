// McPAT-lite: power model for an ARM Cortex-A5-class in-order core.
//
// The paper uses McPAT [19] to estimate core power.  For an A5-class
// single-issue in-order core at 45 nm / 1 V / 1 GHz the McPAT-style
// decomposition collapses to three well-separated terms, which is all the
// EDP experiments need:
//   * dynamic energy per committed instruction (fetch/decode/execute),
//   * dynamic energy per L1 access (separate, since L1 size is a knob),
//   * static leakage while the core is powered (zero when power-gated).
// Cores waiting at a barrier spin on a flag (SPLASH-2 style), burning a
// configurable fraction of full dynamic power — this is exactly the waste
// that PC4-* power states recover by gating idle cores.
#pragma once

#include <cstdint>

namespace mot3d::power {

/// Per-core energy/power coefficients (45 nm, 1 V, 1 GHz defaults).
struct CorePowerParams {
  double energy_per_instr_pj = 90.0;   ///< pipeline energy per instruction
  double energy_per_l1_access_pj = 8.0;
  double leakage_mw = 12.0;            ///< while powered (incl. L1 leakage)
  double spin_fraction = 0.25;         ///< busy-wait dynamic vs. active
  double clock_tree_mw = 3.0;          ///< always-on while powered
};

/// Accumulates one core's energy over a run.
class CorePowerModel {
 public:
  explicit CorePowerModel(const CorePowerParams& p = {}) : p_(p) {}

  /// Dynamic energy of `instructions` committed instructions plus
  /// `l1_accesses` L1 lookups, in picojoules.
  double dynamic_pj(std::uint64_t instructions, std::uint64_t l1_accesses) const {
    return static_cast<double>(instructions) * p_.energy_per_instr_pj +
           static_cast<double>(l1_accesses) * p_.energy_per_l1_access_pj;
  }

  /// Dynamic energy burnt while spin-waiting for `cycles` cycles, in pJ
  /// (spinning executes ~1 instruction/cycle at reduced datapath activity).
  double spin_pj(std::uint64_t cycles) const {
    return static_cast<double>(cycles) * p_.energy_per_instr_pj * p_.spin_fraction;
  }

  /// Static energy over `cycles` cycles while powered (leakage + clock
  /// tree), in pJ; a power-gated core contributes zero.
  double static_pj(std::uint64_t cycles) const {
    // mW * ns == pJ.
    return static_cast<double>(cycles) * (p_.leakage_mw + p_.clock_tree_mw);
  }

 private:
  CorePowerParams p_;
};

}  // namespace mot3d::power
