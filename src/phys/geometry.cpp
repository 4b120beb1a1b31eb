#include "phys/geometry.hpp"

#include "common/types.hpp"

namespace mot3d::phys {

double ClusterGeometry::bank_field_span_mm(std::size_t banks) const {
  // Two stacked tiers share each landing site column, so `banks` banks
  // occupy banks/2 sites; span counts sites actually powered.  We keep the
  // paper's convention of quoting the full per-bank row span (32 banks ->
  // 4 mm with a 0.125 mm site pitch), which subsumes the 2-tier sharing in
  // the pitch constant.
  return fp_.bank_site_pitch_mm * static_cast<double>(banks);
}

double ClusterGeometry::core_field_span_mm(std::size_t cores) const {
  return fp_.core_site_pitch_mm * static_cast<double>(cores);
}

double ClusterGeometry::tree_level_length_mm(double span_mm, std::size_t level) {
  double len = span_mm / 2.0;
  for (std::size_t i = 0; i < level; ++i) len /= 2.0;
  return len;
}

std::vector<double> ClusterGeometry::routing_tree_levels_mm(std::size_t banks) const {
  const unsigned levels = banks > 1 ? log2_exact(banks) : 0;
  const double span = bank_field_span_mm(banks);
  std::vector<double> out;
  out.reserve(levels);
  for (unsigned l = 0; l < levels; ++l) out.push_back(tree_level_length_mm(span, l));
  return out;
}

std::vector<double> ClusterGeometry::arbitration_tree_levels_mm(std::size_t cores) const {
  const unsigned levels = cores > 1 ? log2_exact(cores) : 0;
  const double span = core_field_span_mm(cores);
  std::vector<double> out;
  out.reserve(levels);
  for (unsigned l = 0; l < levels; ++l) out.push_back(tree_level_length_mm(span, l));
  return out;
}

namespace {
double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}
}  // namespace

double ClusterGeometry::request_path_mm(std::size_t cores, std::size_t banks) const {
  return fp_.core_to_channel_mm + sum(routing_tree_levels_mm(banks)) +
         sum(arbitration_tree_levels_mm(cores));
}

double ClusterGeometry::response_path_mm(std::size_t cores, std::size_t banks) const {
  // Mirrored network: routed by core index across the core field, collected
  // per bank across the bank field; same total span.
  return fp_.core_to_channel_mm + sum(arbitration_tree_levels_mm(cores)) +
         sum(routing_tree_levels_mm(banks));
}

double ClusterGeometry::longest_link_mm(std::size_t cores, std::size_t banks) const {
  // The root level of each tree is the longest single segment; a request
  // traverses both roots plus the vertical hop (negligible next to mm-scale
  // horizontal wires but reported for completeness).
  const double root_r = banks > 1 ? tree_level_length_mm(bank_field_span_mm(banks), 0) : 0.0;
  const double root_a = cores > 1 ? tree_level_length_mm(core_field_span_mm(cores), 0) : 0.0;
  return fp_.core_to_channel_mm + root_r + root_a + vertical_mm(2);
}

}  // namespace mot3d::phys
