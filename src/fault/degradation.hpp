// Graceful-degradation policy: maps an injected fault to the reaction the
// cluster executes through its existing machinery (bank-gating drains via
// core::reconfigure, MoT grant penalties, NoC router throttles) or to a
// structured unrecoverable verdict.
//
// The state machine (see DESIGN.md):
//
//   healthy --tsv-degrade--> degraded (penalty on the bank's TSV column)
//   healthy --link-degrade-> degraded (router serialises its flits)
//   healthy --bank/tsv-fail, MoT, bank gateable--> degraded
//            (drain, flush, directory migration, centre-fold remap)
//   any     --bank/tsv-fail, bank inside the minimum centre group-->
//            failed (structured outcome, partial results)
//   any     --bank/router-fail on a packet-switched fabric--> failed
//            (no reconfiguration path: the comparison point of the paper's
//             MoT, whose tree degrades instead of dying)
//
// The policy is a pure function of (event, current power state); all
// mutation happens in the cluster, so both schedulers take identical
// decisions at identical cycles.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/types.hpp"
#include "core/power_state.hpp"
#include "fault/fault_schedule.hpp"

namespace mot3d::fault {

enum class DegradeActionKind {
  kNone,            ///< benign: the faulted unit is already gated out
  kDegradeMotBank,  ///< add grant penalty cycles to a MoT bank channel
  kGateBanks,       ///< reconfigure to `target` (drain/flush/migrate/remap)
  kThrottleRouter,  ///< serialise a NoC router's output links
  kDropInvalidate,  ///< directed-test message drop (cluster sink handles)
  kFailVault,       ///< stacked DRAM: remap traffic off the dead vault
  kUnrecoverable,   ///< end the run with a structured "failed" outcome
};

struct DegradeAction {
  DegradeActionKind kind = DegradeActionKind::kNone;
  std::optional<core::PowerState> target;  ///< kGateBanks
  unsigned penalty_cycles = 0;             ///< degrade / throttle magnitude
  std::uint32_t unit = 0;                  ///< bank or router id
  std::string note;                        ///< human-readable reason
};

class DegradationManager {
 public:
  /// Extra circuit-hold / serialisation cycles of a degraded unit when the
  /// event's magnitude is zero.
  static constexpr unsigned kDefaultPenaltyCycles = 2;

  /// `num_vaults` > 0 enables the stacked-DRAM vault remap path; 0 means
  /// the constant-latency backend, for which a vault fault is fatal.
  /// Gating never goes below Table I's MB8 (core::kMinGatedBanks).
  explicit DegradationManager(bool mot_fabric, std::size_t num_vaults = 0);

  /// Decide the reaction to `ev` given the fabric's current power state.
  DegradeAction react(const FaultEvent& ev, const core::PowerState& current) const;

  /// Smallest centre-fold state (halving active banks, cores unchanged)
  /// that excludes `faulted`, or nullopt if the bank sits inside the
  /// minimum centre group and cannot be gated out.
  std::optional<core::PowerState> gate_target(const core::PowerState& current,
                                              BankId faulted) const;

 private:
  bool mot_fabric_;
  std::size_t num_vaults_;
};

}  // namespace mot3d::fault
