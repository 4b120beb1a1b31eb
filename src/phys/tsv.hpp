// Through-silicon-via (TSV) electrical model after Katti et al. [15] and the
// IMEC micro-bump bonding data [14] the paper uses (40 µm x 50 µm minimum
// bump pitch).
//
// A "TSV bus" is the set of vertical wires (address + data + control) that
// connects one stacked SRAM bank to the MoT interconnect on the core tier.
#pragma once

#include <cstddef>

#include "phys/technology.hpp"

namespace mot3d::phys {

/// Electrical and floorplan model of a vertical TSV bus.
class TsvModel {
 public:
  explicit TsvModel(const TechnologyParams& tech) : tech_(tech) {}

  /// Signal propagation delay through one TSV including its driver,
  /// in ns.  Dominated by the driver; TSVs are electrically short.
  double tsv_delay_ns() const;

  /// Delay through a two-tier stack (worst case: bank on the top tier,
  /// i.e. two bonded interfaces in series).
  double stack_delay_ns(std::size_t tiers_crossed) const;

  /// Dynamic energy of toggling one TSV once, in femtojoules.
  double energy_fj_per_bit() const { return tech_.tsv_energy_fj_per_bit; }


 private:
  TechnologyParams tech_;
};

}  // namespace mot3d::phys
