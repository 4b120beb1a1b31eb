// Liao-He-style interconnect power model [20]: wire switching, repeater
// dynamic + leakage, pipeline flip-flops, and (for the packet-switched
// baselines) router buffer/crossbar/arbiter energy.
#pragma once

#include <cstddef>
#include <cstdint>

#include "phys/wire.hpp"

namespace mot3d::power {

/// Per-router energy coefficients for the packet-switched NoCs (Orion-class
/// numbers for a 5-7 port 64-bit wormhole router at 45 nm).
struct RouterPowerParams {
  double buffer_write_pj_per_flit = 1.6;
  double buffer_read_pj_per_flit = 1.2;
  double crossbar_pj_per_flit = 2.4;
  double arbitration_pj_per_flit = 0.4;
  double leakage_mw = 1.8;  ///< per router instance
};

/// Energy helpers bridging the phys wire model to ledger entries.
class InterconnectPowerModel {
 public:
  InterconnectPowerModel(const phys::WireModel& wire, RouterPowerParams router = {})
      : wire_(wire), router_(router) {}

  /// Dynamic energy of moving `bits` across `mm` of repeated wire, pJ.
  double wire_transfer_pj(double mm, std::size_t bits) const {
    return wire_.switch_energy_fj_per_bit(mm) * 1e-3 * static_cast<double>(bits);
  }

  /// Leakage power of a `bits`-wide repeated bus of length `mm`, mW.
  double wire_leakage_mw(double mm, std::size_t bits) const {
    return wire_.leakage_uw_per_bit(mm) * 1e-3 * static_cast<double>(bits);
  }

  /// Energy of one flit traversing one router (write+read+xbar+arb), pJ.
  double router_hop_pj() const {
    return router_.buffer_write_pj_per_flit + router_.buffer_read_pj_per_flit +
           router_.crossbar_pj_per_flit + router_.arbitration_pj_per_flit;
  }

  double router_leakage_mw() const { return router_.leakage_mw; }

  const phys::WireModel& wire() const { return wire_; }

 private:
  phys::WireModel wire_;
  RouterPowerParams router_;
};

}  // namespace mot3d::power
