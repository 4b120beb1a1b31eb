#include "phys/wire.hpp"

#include <cmath>

namespace mot3d::phys {

namespace {
constexpr double kDriverFactor = 0.69;  // lumped RC step response
constexpr double kWireFactor = 0.38;    // distributed RC Elmore factor
}  // namespace

double WireModel::unrepeated_delay_ns(double mm) const {
  if (mm <= 0.0) return 0.0;
  const double r = tech_.wire_res_ohm_per_mm;       // ohm/mm
  const double c = tech_.wire_cap_ff_per_mm * 1e-15;  // F/mm
  // ohm * F = seconds; convert to ns.
  return kWireFactor * r * c * mm * mm * 1e9;
}

double WireModel::segment_delay_ns(double mm) const {
  if (mm <= 0.0) return 0.0;
  const double r = tech_.wire_res_ohm_per_mm;
  const double c = tech_.wire_cap_ff_per_mm * 1e-15;
  const double rd = tech_.repeater_res_ohm;
  const double cg = tech_.repeater_cap_ff * 1e-15;
  const double driver = kDriverFactor * rd * (cg + c * mm);
  const double wire = kWireFactor * r * c * mm * mm;
  const double load = kDriverFactor * r * mm * cg;
  return (driver + wire + load) * 1e9;
}

double WireModel::repeated_delay_ns(double mm) const {
  if (mm <= 0.0) return 0.0;
  const double spacing = tech_.repeater_spacing_mm;
  if (spacing <= 0.0 || mm <= spacing) return segment_delay_ns(mm);
  const auto full = static_cast<std::size_t>(mm / spacing);
  const double rest = mm - static_cast<double>(full) * spacing;
  double delay = static_cast<double>(full) * segment_delay_ns(spacing);
  if (rest > 1e-12) delay += segment_delay_ns(rest);
  return delay;
}

std::size_t WireModel::repeater_count(double mm) const {
  const double spacing = tech_.repeater_spacing_mm;
  if (mm <= 0.0 || spacing <= 0.0) return 0;
  // One driver at the source always exists (network interface); repeaters
  // are the inverters at interior spacing boundaries.
  const double interior = mm / spacing;
  auto n = static_cast<std::size_t>(interior);
  if (std::abs(interior - static_cast<double>(n)) < 1e-12 && n > 0) --n;
  return n;
}

double WireModel::optimal_spacing_mm() const {
  const double r = tech_.wire_res_ohm_per_mm;
  const double c = tech_.wire_cap_ff_per_mm * 1e-15;
  const double rd = tech_.repeater_res_ohm;
  const double cg = tech_.repeater_cap_ff * 1e-15;
  return std::sqrt((kDriverFactor * rd * cg) / (kWireFactor * r * c));
}

double WireModel::switch_energy_fj_per_bit(double mm) const {
  if (mm <= 0.0) return 0.0;
  const double c_wire_ff = tech_.wire_cap_ff_per_mm * mm;
  const double c_rep_ff =
      static_cast<double>(repeater_count(mm)) * tech_.repeater_cap_ff;
  // alpha = 0.5 activity on a switching event; E = a * C * V^2.
  return 0.5 * (c_wire_ff + c_rep_ff) * tech_.vdd_v * tech_.vdd_v;
}

double WireModel::leakage_uw_per_bit(double mm) const {
  return static_cast<double>(repeater_count(mm)) * tech_.repeater_leak_uw;
}

}  // namespace mot3d::phys
