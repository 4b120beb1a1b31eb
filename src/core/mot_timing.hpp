// Timing, energy and leakage model of the (pipelined) circuit-switched
// 3-D MoT interconnect.
//
// Latency: a request crosses its core's routing tree (log2(banks) switch
// levels + the tree's wires), the target bank's arbitration tree
// (log2(cores) levels + wires) and the TSV stack; the response returns
// through the mirrored network.  Pipeline registers are retimed along the
// combinational path (the pipelining of ref [10]), so the stage count of
// each direction is ceil(path delay / clock period).  Power-gating shrinks
// the *active* field spans (Fig. 5), which shortens the wires and removes
// pipeline stages — this is how Table I's latencies arise:
//
//     Full connection  (16 cores, 32 banks):  5 + 3 + 4 = 12 cycles
//     PC16-MB8         (16 cores,  8 banks):  3 + 3 + 3 =  9 cycles
//     PC4-MB32         ( 4 cores, 32 banks):  3 + 3 + 3 =  9 cycles
//     PC4-MB8          ( 4 cores,  8 banks):  2 + 3 + 2 =  7 cycles
//
// (request + bank + response; the bank access comes from the CACTI-lite
// model).  Nothing here is hard-coded to those numbers — they emerge from
// the technology constants in phys::TechnologyParams, and the unit tests
// assert the Table I values.
#pragma once

#include <cstddef>

#include "cacti/sram_model.hpp"
#include "core/power_state.hpp"
#include "phys/geometry.hpp"
#include "phys/technology.hpp"
#include "phys/tsv.hpp"
#include "phys/wire.hpp"

namespace mot3d::core {

/// Datapath widths of the MoT buses.
struct MotBusConfig {
  std::size_t addr_bits = 32;
  std::size_t ctl_bits = 8;
  std::size_t line_bytes = 32;  ///< cache-line transfer granule

  std::size_t request_header_bits() const { return addr_bits + ctl_bits; }
  std::size_t response_header_bits() const { return ctl_bits; }
  std::size_t line_bits() const { return line_bytes * 8; }
};

/// Pipeline latencies of one power state.
struct MotStateTiming {
  unsigned request_cycles = 0;   ///< core -> bank pipeline stages
  unsigned bank_cycles = 0;      ///< SRAM bank access (CACTI-lite)
  unsigned response_cycles = 0;  ///< bank -> core pipeline stages
  double request_delay_ns = 0.0;
  double response_delay_ns = 0.0;

  unsigned l2_round_trip() const {
    return request_cycles + bank_cycles + response_cycles;
  }
};

class MotTimingModel {
 public:
  MotTimingModel(const phys::TechnologyParams& tech,
                 const phys::FloorplanParams& floorplan,
                 const cacti::SramBankConfig& bank_cfg,
                 MotBusConfig bus = {});

  /// Pipeline timing with `active_cores` / `active_banks` powered.
  MotStateTiming timing(std::size_t active_cores, std::size_t active_banks) const;
  MotStateTiming timing(const PowerState& state) const {
    return timing(state.active_cores(), state.active_banks());
  }

  /// Dynamic energy of one request traversal (header, plus the line for
  /// write-backs), pJ.
  double request_energy_pj(const PowerState& state, bool carries_line) const;

  /// Dynamic energy of one response traversal, pJ.
  double response_energy_pj(const PowerState& state, bool carries_line) const;

  /// Leakage of the powered network: repeater inverters along the active
  /// wires + powered routing/arbitration switches (both directions), mW.
  double leakage_mw(const PowerState& state) const;

  /// Powered switch instances (both networks) — Fig. 4's white+gray set.
  std::size_t powered_switches(const PowerState& state) const;

  /// Repeater inverters on the active network, per state (the inverters
  /// the paper explicitly power-gates), summed over all bus bits.
  std::size_t powered_repeaters(const PowerState& state) const;

  const phys::WireModel& wire() const { return wire_; }
  const MotBusConfig& bus() const { return bus_; }
  unsigned bank_access_cycles() const { return bank_cycles_; }

 private:
  /// Sum of per-level repeated-wire delays of a tree with `levels` levels
  /// spanning `span_mm`.
  double tree_wire_delay_ns(double span_mm, unsigned levels) const;
  double path_energy_pj(double path_mm, unsigned switch_levels,
                        std::size_t bits) const;

  phys::TechnologyParams tech_;
  phys::ClusterGeometry geometry_;
  phys::WireModel wire_;
  phys::TsvModel tsv_;
  MotBusConfig bus_;
  unsigned bank_cycles_;
  unsigned levels_banks_;  ///< log2(total banks)
  unsigned levels_cores_;  ///< log2(total cores)
};

}  // namespace mot3d::core
