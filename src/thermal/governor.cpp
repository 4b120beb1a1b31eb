#include "thermal/governor.hpp"

#include <string>

namespace mot3d::thermal {

ThermalGovernor::ThermalGovernor(double ceiling_c, bool allow_bank_gating,
                                 const core::PowerState& baseline)
    : ceiling_c_(ceiling_c),
      allow_bank_gating_(allow_bank_gating),
      baseline_(baseline),
      current_(baseline) {}

bool ThermalGovernor::can_gate_banks() const {
  return allow_bank_gating_ && baseline_.active_banks() > core::kMinGatedBanks;
}

core::PowerState ThermalGovernor::gated_state() const {
  const std::size_t banks = core::kMinGatedBanks;
  const std::size_t cores = baseline_.active_cores();
  return core::PowerState("PC" + std::to_string(cores) + "-MB" + std::to_string(banks),
                          baseline_.total_cores(), cores, baseline_.total_banks(),
                          banks);
}

GovernorDecision ThermalGovernor::decide(double peak_c) {
  GovernorDecision d;
  const bool hot = peak_c >= ceiling_c_;
  const bool cool = peak_c <= ceiling_c_ - kHysteresisC;

  switch (level_) {
    case 0:
      if (hot) {
        ++stats_.throttle_events;
        if (can_gate_banks()) {
          level_ = 1;
          ++stats_.bank_gate_events;
          current_ = gated_state();
          d.reconfigure = current_;
        } else {
          level_ = 2;
          ++stats_.core_hold_events;
          consecutive_holds_ = 0;
        }
      }
      break;
    case 1:
      if (hot) {
        // Bank gating alone did not arrest the rise: escalate to holds.
        ++stats_.throttle_events;
        ++stats_.core_hold_events;
        level_ = 2;
        consecutive_holds_ = 0;
      } else if (cool) {
        level_ = 0;
        current_ = baseline_;
        d.reconfigure = current_;
      }
      break;
    case 2:
      if (cool) {
        // Walk back one rung: banks stay gated (if they were) until a
        // further cool interval confirms the headroom.
        level_ = current_ == baseline_ ? 0 : 1;
        consecutive_holds_ = 0;
        duty_release_ = false;
      } else if (duty_release_) {
        // The forced-release interval has passed; resume holding.
        duty_release_ = false;
        consecutive_holds_ = 0;
      } else if (consecutive_holds_ >= kMaxHoldIntervals) {
        duty_release_ = true;
        ++stats_.duty_cycle_releases;
      }
      break;
    default:
      break;
  }

  d.hold_cores = holding();
  if (d.hold_cores) {
    ++consecutive_holds_;
    ++stats_.held_intervals;
  }
  return d;
}

}  // namespace mot3d::thermal
