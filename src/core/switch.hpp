// The MoT routing switch primitive (paper Fig. 2(b), Fig. 3).
//
// RoutingSwitch models the paper's *modified* routing switch: the classic
// MUX + DEMUX + address-decode control, extended with one extra multiplexer
// and two control signals (ctr_0, ctr_1) that select between conventional
// (address-based) routing and a user-defined direction — the mechanism that
// makes the interconnect reconfigurable for power-gating.  The original
// (unmodified) switch is simply a modified switch pinned to conventional
// mode.  The round-robin arbitration switch of Fig. 2(c) is
// ArbitrationTree::grant.
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.hpp"

namespace mot3d::core {

/// Operating mode of a (modified) routing switch; Fig. 3(b)'s control
/// signals {ctr_1, ctr_0} select it: (0,0) conventional, (0,1) force
/// port 0, (1,0) force port 1, (1,1) power-gated.
enum class RouteMode : std::uint8_t {
  kConventional,  ///< direction = packet's bank-index address bit
  kForcePort0,    ///< user-defined: always port 0 (lower subtree)
  kForcePort1,    ///< user-defined: always port 1 (upper subtree)
  kPowerGated,    ///< switch off; no packet may traverse
};

/// One (modified) routing switch examining bank-index bit `addr_bit`.
class RoutingSwitch {
 public:
  explicit RoutingSwitch(unsigned addr_bit = 0) : addr_bit_(addr_bit) {}

  void set_mode(RouteMode m) { mode_ = m; }
  RouteMode mode() const { return mode_; }

  /// Route a packet destined for logical bank `bank_index`.
  /// Returns the output port (0 or 1), or nullopt if the switch is gated.
  std::optional<unsigned> route(BankId bank_index) const {
    switch (mode_) {
      case RouteMode::kConventional:
        return (bank_index >> addr_bit_) & 1u;
      case RouteMode::kForcePort0:
        return 0u;
      case RouteMode::kForcePort1:
        return 1u;
      case RouteMode::kPowerGated:
        return std::nullopt;
    }
    return std::nullopt;
  }

  bool powered() const { return mode_ != RouteMode::kPowerGated; }

 private:
  unsigned addr_bit_;
  RouteMode mode_ = RouteMode::kConventional;
};

}  // namespace mot3d::core
