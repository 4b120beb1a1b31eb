// Elmore distributed-RC wire delay with repeater (inverter) insertion.
//
// Implements the delay model the paper cites ([15] for Elmore RC, [20]
// Liao-He for repeated-wire power).  A wire of length L is split into
// segments of `repeater_spacing_mm`; each segment is driven by an inverter
// and contributes
//
//   t_seg = 0.69 * R_drv * (C_gate + c*l) + 0.38 * r*c*l^2 + 0.69 * r*l*C_gate
//
// (classic lumped-driver + distributed-RC Elmore expression).
#pragma once

#include <cstddef>

#include "phys/technology.hpp"

namespace mot3d::phys {

/// Delay / energy / repeater-count model for a repeated on-chip wire.
class WireModel {
 public:
  explicit WireModel(const TechnologyParams& tech) : tech_(tech) {}

  /// Elmore delay of an unrepeated distributed RC wire of length `mm`.
  double unrepeated_delay_ns(double mm) const;

  /// Delay of one repeated segment of length `mm` (driver + wire).
  double segment_delay_ns(double mm) const;

  /// Delay of a repeated wire of length `mm` with repeaters every
  /// `repeater_spacing_mm` (partial last segment handled exactly).
  double repeated_delay_ns(double mm) const;

  /// Number of repeater inverters placed along a wire of length `mm`
  /// (one per full spacing boundary; a zero-length wire has none).
  std::size_t repeater_count(double mm) const;

  /// Repeater spacing that minimises repeated delay for this technology
  /// (sqrt(0.38/0.69 * R_drv*C_gate / (r*c))); exposed for the ablation
  /// bench comparing design-point spacing against the optimum.
  double optimal_spacing_mm() const;

  /// Dynamic energy to switch one bit across `mm` of wire once
  /// (0.5 * c * L * Vdd^2 + repeater gate energy), in femtojoules.
  double switch_energy_fj_per_bit(double mm) const;

  /// Leakage of the repeaters along `mm` of one bit-wire, in microwatts.
  double leakage_uw_per_bit(double mm) const;

  const TechnologyParams& tech() const { return tech_; }

 private:
  TechnologyParams tech_;
};

}  // namespace mot3d::phys
