// Floorplan geometry of the 3-D multi-core cluster (paper Fig. 1(b), Fig. 5).
//
// The die is ~5 mm x 5 mm; the MoT interconnect sits in a channel across the
// middle of the core tier so that core-to-bank distances are balanced.  The
// two L2 tiers sit 40 µm above, reached through TSV buses whose landing pads
// occupy the channel.  Power-gating shrinks the *active* spans: with 8 of 32
// banks on, only a quarter of the TSV field is used; with 4 of 16 cores on,
// only a quarter of the core row participates — this is the wire-length
// asymmetry of Fig. 5 that makes the gated network faster as well as cooler.
#pragma once

#include <cstddef>
#include <vector>

#include "phys/technology.hpp"

namespace mot3d::phys {

/// Static floorplan parameters.
struct FloorplanParams {
  double die_x_mm = 5.0;            ///< Fig. 5: x ~ 5 mm
  double die_y_mm = 5.0;            ///< Fig. 5: y ~ 5 mm
  double tier_gap_mm = 0.040;       ///< Fig. 5: z ~ 40 µm
  double core_site_pitch_mm = 0.25; ///< width of one core slot on the row
  double bank_site_pitch_mm = 0.125;///< width of one TSV-bus landing site
  double core_to_channel_mm = 0.0;  ///< vertical offset core row -> channel
  std::size_t max_cores = 16;
  std::size_t max_banks = 32;
};

/// Wire-length bookkeeping for the MoT trees as a function of how many
/// cores / banks are powered.
class ClusterGeometry {
 public:
  ClusterGeometry(const FloorplanParams& fp, const TechnologyParams& tech)
      : fp_(fp), tech_(tech) {}

  /// Horizontal span (mm) of the active TSV-bus field for `banks` banks.
  double bank_field_span_mm(std::size_t banks) const;

  /// Horizontal span (mm) of the active core row for `cores` cores.
  double core_field_span_mm(std::size_t cores) const;

  /// Wire length of tree level `level` (0 = root) for a binary tree
  /// spanning `span_mm`: an H-tree-style halving, w_l = span / 2^(l+1).
  static double tree_level_length_mm(double span_mm, std::size_t level);

  /// Per-level wire lengths of a routing tree addressing `banks` leaves.
  std::vector<double> routing_tree_levels_mm(std::size_t banks) const;

  /// Per-level wire lengths of an arbitration tree merging `cores` inputs.
  std::vector<double> arbitration_tree_levels_mm(std::size_t cores) const;

  /// Total wire traversed by one request from a core to a bank (sum of the
  /// tree levels plus interface stubs), in mm — the dynamic-energy length.
  double request_path_mm(std::size_t cores, std::size_t banks) const;

  /// Total wire on the response path (mirrored network), in mm.
  double response_path_mm(std::size_t cores, std::size_t banks) const;

  /// Worst-case single link (longest wire segment that must be driven in
  /// one clock), Fig. 5's quantity, in mm.
  double longest_link_mm(std::size_t cores, std::size_t banks) const;

  /// Vertical distance crossed to reach a bank on stacked tier `tier`
  /// (1 or 2), in mm.
  double vertical_mm(std::size_t tier) const {
    return fp_.tier_gap_mm * static_cast<double>(tier);
  }

  const FloorplanParams& floorplan() const { return fp_; }

 private:
  FloorplanParams fp_;
  TechnologyParams tech_;
};

}  // namespace mot3d::phys
