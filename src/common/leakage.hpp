// Temperature dependence of sub-threshold leakage: the one law the thermal
// subsystem's leakage-feedback fixed point applies (ThermalConfig::leakage).
//
// Sub-threshold leakage grows exponentially with junction temperature; over
// the 40-110 °C range a single e-folding constant fits both BSIM curves and
// published 45 nm silicon well.  Every power model (cacti::sram_model,
// phys::wire, power::core_power, the MoT switch leakage) quotes its
// datasheet leakage at the reference temperature; the fixed point scales
// each tile's sum with this exponential, so the closed
// power->temperature->leakage->power loop uses one consistent law.
#pragma once

#include <cmath>

namespace mot3d {

/// Exponential leakage-vs-temperature law: scale = exp((T - Tref) / T0).
struct LeakageTempParams {
  double ref_temp_c = 45.0;  ///< temperature the datasheet leakage is quoted at
  double efold_c = 25.0;     ///< e-folding constant (leakage doubles per ~17 °C)
};

/// Multiplier on reference leakage at junction temperature `temp_c`.
/// Equal to 1 at the reference temperature; monotone increasing in `temp_c`.
inline double leakage_temp_scale(double temp_c, const LeakageTempParams& p = {}) {
  return std::exp((temp_c - p.ref_temp_c) / p.efold_c);
}

}  // namespace mot3d
