// Temperature dependence of sub-threshold leakage: the one law the thermal
// subsystem's leakage-feedback fixed point applies.
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

/// Temperature the datasheet leakage is quoted at, °C.
inline constexpr double kLeakageRefTempC = 45.0;
/// E-folding constant of the law, °C (leakage doubles per ~17 °C).
inline constexpr double kLeakageEfoldC = 25.0;

/// Multiplier on reference leakage at junction temperature `temp_c`:
/// exp((T - Tref) / T0).  Equal to 1 at kLeakageRefTempC; monotone
/// increasing in `temp_c`.
inline double leakage_temp_scale(double temp_c) {
  return std::exp((temp_c - kLeakageRefTempC) / kLeakageEfoldC);
}

}  // namespace mot3d
