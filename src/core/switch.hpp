// The MoT switch primitives (paper Fig. 2(b), Fig. 2(c), Fig. 3).
//
// RoutingSwitch models the paper's *modified* routing switch: the classic
// MUX + DEMUX + address-decode control, extended with one extra multiplexer
// and two control signals (ctr_0, ctr_1) that select between conventional
// (address-based) routing and a user-defined direction — the mechanism that
// makes the interconnect reconfigurable for power-gating.  The original
// (unmodified) switch is simply a modified switch pinned to conventional
// mode.
//
// ArbitrationSwitch models the 2-input round-robin arbitration switch: the
// packet "must be arbitrated among the other simultaneous packets heading
// for the same cache bank"; round-robin makes it starvation-free.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "common/types.hpp"

namespace mot3d::core {

/// Operating mode of a (modified) routing switch.
enum class RouteMode : std::uint8_t {
  kConventional,  ///< direction = packet's bank-index address bit
  kForcePort0,    ///< user-defined: always port 0 (lower subtree)
  kForcePort1,    ///< user-defined: always port 1 (upper subtree)
  kPowerGated,    ///< switch off; no packet may traverse
};

/// Control-signal encoding of Fig. 3(b): {ctr_1, ctr_0} selects the mode.
///   (0,0) conventional, (0,1) force port 0, (1,0) force port 1,
///   (1,1) power-gated.
struct ControlSignals {
  bool ctr_0 = false;
  bool ctr_1 = false;
};

RouteMode mode_from_signals(ControlSignals s);
ControlSignals signals_from_mode(RouteMode m);

/// One (modified) routing switch examining bank-index bit `addr_bit`.
class RoutingSwitch {
 public:
  explicit RoutingSwitch(unsigned addr_bit = 0) : addr_bit_(addr_bit) {}

  void set_mode(RouteMode m) { mode_ = m; }
  RouteMode mode() const { return mode_; }

  /// Drive the ctr wires directly (Fig. 3(b)).
  void set_control(ControlSignals s) { mode_ = mode_from_signals(s); }
  ControlSignals control() const { return signals_from_mode(mode_); }

  /// Which bank-index bit the conventional decode examines.
  unsigned addr_bit() const { return addr_bit_; }

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

/// One 2-input round-robin arbitration switch (Fig. 2(c)).  The priority
/// pointer flips on every grant, which makes a tree of these switches
/// starvation-free with bounded waiting.
class ArbitrationSwitch {
 public:
  /// Grant one of the requesting inputs; nullopt when neither requests or
  /// the switch is power-gated.
  std::optional<unsigned> arbitrate(bool req0, bool req1) {
    const std::optional<unsigned> winner = peek(req0, req1);
    if (winner.has_value()) commit(*winner);
    return winner;
  }

  /// Combinational grant decision without touching the round-robin state
  /// (the hardware only rotates priority on switches along the *granted*
  /// path; see ArbitrationTree).
  std::optional<unsigned> peek(bool req0, bool req1) const {
    return grant(powered_, prefer_, req0, req1);
  }

  /// The grant rule for a switch that is `powered` and gives a tie to
  /// input `prefer`.  ArbitrationTree applies it to its packed pointers.
  static std::optional<unsigned> grant(bool powered, unsigned prefer,
                                       bool req0, bool req1) {
    if (!powered) return std::nullopt;
    if (!req0 && !req1) return std::nullopt;
    if (req0 && req1) return prefer;
    return req0 ? 0u : 1u;
  }

  /// Rotate priority after a grant travelled through this switch.
  void commit(unsigned winner) { prefer_ = static_cast<std::uint8_t>(1u - winner); }

  void set_powered(bool on) { powered_ = on; }
  bool powered() const { return powered_; }

 private:
  std::uint8_t prefer_ = 0;
  bool powered_ = true;
};

}  // namespace mot3d::core
