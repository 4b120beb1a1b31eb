#include "phys/tsv.hpp"

namespace mot3d::phys {

double TsvModel::tsv_delay_ns() const {
  // 0.69 * (R_drv + R_tsv) * C_tsv: driver charging the TSV capacitance.
  const double r = tech_.repeater_res_ohm + tech_.tsv_res_ohm;
  return 0.69 * r * tech_.tsv_cap_ff * 1e-15 * 1e9;
}

double TsvModel::stack_delay_ns(std::size_t tiers_crossed) const {
  return static_cast<double>(tiers_crossed) * tsv_delay_ns();
}

}  // namespace mot3d::phys
