// Thermal-aware power-state governor: the closed-loop controller that
// keeps the stack under a temperature ceiling using the same Table-I
// power-state machinery the paper's EDP experiments exploit.
//
// The governor is consulted at every thermal sampling interval with the
// hottest tile temperature and escalates through a demotion ladder:
//
//   level 0  free running at the baseline power state
//   level 1  L2 banks gated down to Table I's MB8 (core::kMinGatedBanks;
//            MoT fabric only — the reconfigurable network is what makes
//            this step exist; the packet-switched baselines skip straight
//            to level 2)
//   level 2  cores clock-held (the classic stop-clock throttle); a
//            duty-cycle guard forces a release after kMaxHoldIntervals
//            consecutive held intervals so the run always makes forward
//            progress, whatever the ambient
//
// Demotion triggers when the peak crosses the ceiling; restoration walks
// back down the ladder only once the peak has cooled below
// ceiling - kHysteresisC, so the controller cannot chatter across the
// threshold.  The governor itself only decides — the cluster executes
// (drain + core::reconfigure for bank gating, tick gating for holds)
// at deterministic cycle boundaries, which keeps both schedulers
// bit-identical.
#pragma once

#include <cstdint>
#include <optional>

#include "core/power_state.hpp"

namespace mot3d::thermal {

/// What the cluster must do after one decide() call.
struct GovernorDecision {
  /// Reconfigure to this state (drain first); set on bank gate/restore.
  std::optional<core::PowerState> reconfigure;
  bool hold_cores = false;  ///< cores must be clock-held this interval
};

struct GovernorStats {
  std::uint64_t throttle_events = 0;   ///< demotions of either kind
  std::uint64_t bank_gate_events = 0;
  std::uint64_t core_hold_events = 0;  ///< hold *starts*, not held intervals
  std::uint64_t held_intervals = 0;
  std::uint64_t duty_cycle_releases = 0;
};

class ThermalGovernor {
 public:
  /// Restore margin below the ceiling, °C.
  static constexpr double kHysteresisC = 5.0;
  /// Consecutive held intervals before the duty-cycle guard forces a
  /// released one.
  static constexpr std::uint64_t kMaxHoldIntervals = 4;

  /// Throttles above `ceiling_c`; gates banks only when
  /// `allow_bank_gating` (the MoT fabric).  `baseline` is the power state
  /// the run was configured with — the ceiling of every restoration.
  ThermalGovernor(double ceiling_c, bool allow_bank_gating,
                  const core::PowerState& baseline);

  /// One control step at a sampling boundary.  `peak_c` is the hottest
  /// tile of the interval that just ended.
  GovernorDecision decide(double peak_c);

  bool holding() const { return level_ == 2 && !duty_release_; }
  unsigned level() const { return level_; }
  const GovernorStats& stats() const { return stats_; }

  /// The level-1 target: baseline cores, banks gated to the floor.
  core::PowerState gated_state() const;

 private:
  bool can_gate_banks() const;

  double ceiling_c_;
  bool allow_bank_gating_;
  core::PowerState baseline_;
  core::PowerState current_;
  unsigned level_ = 0;
  std::uint64_t consecutive_holds_ = 0;
  bool duty_release_ = false;  ///< forced-release interval in progress
  GovernorStats stats_;
};

}  // namespace mot3d::thermal
