#include "core/mot_timing.hpp"

#include <cmath>

#include "core/arbitration_tree.hpp"
#include "core/routing_tree.hpp"

namespace mot3d::core {

MotTimingModel::MotTimingModel(const phys::TechnologyParams& tech,
                               const phys::FloorplanParams& floorplan,
                               const cacti::SramBankConfig& bank_cfg,
                               MotBusConfig bus)
    : tech_(tech),
      geometry_(floorplan, tech),
      wire_(tech),
      tsv_(tech),
      bus_(bus),
      bank_cycles_(cacti::access_cycles(bank_cfg, tech.clock_period_ns)),
      levels_banks_(log2_exact(floorplan.max_banks)),
      levels_cores_(log2_exact(floorplan.max_cores)) {}

double MotTimingModel::tree_wire_delay_ns(double span_mm, unsigned levels) const {
  double sum = 0.0;
  for (unsigned l = 0; l < levels; ++l) {
    sum += wire_.repeated_delay_ns(
        phys::ClusterGeometry::tree_level_length_mm(span_mm, l));
  }
  return sum;
}

MotStateTiming MotTimingModel::timing(std::size_t active_cores,
                                      std::size_t active_banks) const {
  MotStateTiming t;
  const double span_b = geometry_.bank_field_span_mm(active_banks);
  const double span_c = geometry_.core_field_span_mm(active_cores);
  const double tsv = tsv_.stack_delay_ns(2);  // worst case: top tier

  // Request: core interface -> routing tree (all structural levels; the
  // forced/user-defined switches are still on the path) -> arbitration
  // tree -> TSV stack.  Wires span only the *active* fields.
  t.request_delay_ns = tech_.interface_delay_ns +
                       levels_banks_ * tech_.routing_switch_delay_ns +
                       tree_wire_delay_ns(span_b, levels_banks_) +
                       levels_cores_ * tech_.arbitration_switch_delay_ns +
                       tree_wire_delay_ns(span_c, levels_cores_) + tsv;

  // Response: mirrored network of plain-mux collectors (no arbitration —
  // each core has a single outstanding transaction).
  t.response_delay_ns =
      tech_.interface_delay_ns +
      (levels_banks_ + levels_cores_) * tech_.response_switch_delay_ns +
      tree_wire_delay_ns(span_b, levels_banks_) +
      tree_wire_delay_ns(span_c, levels_cores_) + tsv;

  const double T = tech_.clock_period_ns;
  t.request_cycles = static_cast<unsigned>(std::ceil(t.request_delay_ns / T - 1e-9));
  t.response_cycles = static_cast<unsigned>(std::ceil(t.response_delay_ns / T - 1e-9));
  t.bank_cycles = bank_cycles_;
  return t;
}

double MotTimingModel::path_energy_pj(double path_mm, unsigned switch_levels,
                                      std::size_t bits) const {
  const double wire_fj = wire_.switch_energy_fj_per_bit(path_mm);
  const double switch_fj = switch_levels * tech_.switch_energy_fj_per_bit;
  const double tsv_fj = 2.0 * tsv_.energy_fj_per_bit();  // two bonded tiers
  return (wire_fj + switch_fj + tsv_fj) * static_cast<double>(bits) * 1e-3;
}

double MotTimingModel::request_energy_pj(const PowerState& state,
                                         bool carries_line) const {
  const double path =
      geometry_.request_path_mm(state.active_cores(), state.active_banks());
  const std::size_t bits =
      bus_.request_header_bits() + (carries_line ? bus_.line_bits() : 0);
  return path_energy_pj(path, levels_banks_ + levels_cores_, bits);
}

double MotTimingModel::response_energy_pj(const PowerState& state,
                                          bool carries_line) const {
  const double path =
      geometry_.response_path_mm(state.active_cores(), state.active_banks());
  const std::size_t bits =
      bus_.response_header_bits() + (carries_line ? bus_.line_bits() : 0);
  return path_energy_pj(path, levels_banks_ + levels_cores_, bits);
}

std::size_t MotTimingModel::powered_switches(const PowerState& state) const {
  // Exact structural count: build scratch trees and configure them (cheap:
  // at most total_banks-1 nodes each).  Request network: one routing tree
  // per active core + one arbitration tree per active bank; the response
  // network mirrors it.
  RoutingTree rt(state.total_banks());
  const std::size_t rt_powered = rt.configure(state);
  ArbitrationTree at(state.total_cores());
  const std::size_t at_powered = at.configure(state);

  RoutingTree resp_rt(state.total_cores());
  // Response routing is by core index; its don't-care levels follow the
  // core fold.  Build an equivalent bank/core-swapped state.
  const PowerState swapped("resp", state.total_banks(), state.active_banks(),
                           state.total_cores(), state.active_cores());
  const std::size_t resp_rt_powered = resp_rt.configure(swapped);
  ArbitrationTree resp_at(state.total_banks());
  const std::size_t resp_at_powered = resp_at.configure(swapped);

  return state.active_cores() * rt_powered + state.active_banks() * at_powered +
         state.active_banks() * resp_rt_powered +
         state.active_cores() * resp_at_powered;
}

std::size_t MotTimingModel::powered_repeaters(const PowerState& state) const {
  const double span_b = geometry_.bank_field_span_mm(state.active_banks());
  const double span_c = geometry_.core_field_span_mm(state.active_cores());

  auto per_tree = [this](double span, unsigned levels) {
    std::size_t n = 0;
    for (unsigned l = 0; l < levels; ++l) {
      const double edge = phys::ClusterGeometry::tree_level_length_mm(span, l);
      n += (std::size_t{1} << (l + 1)) * wire_.repeater_count(edge);
    }
    return n;
  };

  const std::size_t req_bits = bus_.request_header_bits() + bus_.line_bits();
  const std::size_t resp_bits = bus_.response_header_bits() + bus_.line_bits();

  // Request network: routing trees over the bank field (one per active
  // core) and arbitration trees over the core field (one per active bank);
  // response network mirrored.
  const std::size_t req =
      (state.active_cores() * per_tree(span_b, levels_banks_) +
       state.active_banks() * per_tree(span_c, levels_cores_)) *
      req_bits;
  const std::size_t resp =
      (state.active_banks() * per_tree(span_c, levels_cores_) +
       state.active_cores() * per_tree(span_b, levels_banks_)) *
      resp_bits;
  return req + resp;
}

double MotTimingModel::leakage_mw(const PowerState& state) const {
  const double switches =
      static_cast<double>(powered_switches(state)) * tech_.switch_leak_uw * 1e-3;
  const double repeaters =
      static_cast<double>(powered_repeaters(state)) * tech_.repeater_leak_uw * 1e-3;
  return switches + repeaters;
}

}  // namespace mot3d::core
