#include "fault/degradation.hpp"

namespace mot3d::fault {

DegradationManager::DegradationManager(bool mot_fabric, std::size_t num_vaults)
    : mot_fabric_(mot_fabric), num_vaults_(num_vaults) {}

std::optional<core::PowerState> DegradationManager::gate_target(
    const core::PowerState& current, BankId faulted) const {
  std::size_t banks = current.active_banks();
  while (banks / 2 >= core::kMinGatedBanks) {
    banks /= 2;
    core::PowerState next("PC" + std::to_string(current.active_cores()) +
                              "-MB" + std::to_string(banks),
                          current.total_cores(), current.active_cores(),
                          current.total_banks(), banks);
    if (!next.bank_active(faulted)) return next;
  }
  return std::nullopt;
}

DegradeAction DegradationManager::react(const FaultEvent& ev,
                                        const core::PowerState& current) const {
  DegradeAction act;
  act.unit = ev.target;
  act.penalty_cycles = ev.magnitude != 0 ? ev.magnitude : kDefaultPenaltyCycles;

  switch (ev.kind) {
    case FaultKind::kTsvDegrade:
      // The marginal via is permanent — the penalty applies even to a
      // currently-gated bank in case a thermal restore re-activates it.
      act.kind = DegradeActionKind::kDegradeMotBank;
      act.note = "tsv-degrade: bank " + std::to_string(ev.target);
      return act;

    case FaultKind::kLinkDegrade:
      act.kind = DegradeActionKind::kThrottleRouter;
      act.note = "link-degrade: router " + std::to_string(ev.target);
      return act;

    case FaultKind::kDropInvalidate:
      act.kind = DegradeActionKind::kDropInvalidate;
      act.note = "drop-invalidate";
      return act;

    case FaultKind::kVaultFail:
      // Vault faults route through the stacked backend's remap machinery;
      // the constant-latency controller has no vault structure to fall
      // back on.  Whether a remap target survives is the backend's call
      // (the cluster converts an impossible remap into "failed").
      if (num_vaults_ == 0) {
        act.kind = DegradeActionKind::kUnrecoverable;
        act.note = "vault " + std::to_string(ev.target) +
                   " hard-faulted: no stacked-DRAM backend to remap";
      } else {
        act.kind = DegradeActionKind::kFailVault;
        act.note = "vault " + std::to_string(ev.target) +
                   " hard-faulted: remap traffic onto surviving vaults";
      }
      return act;

    case FaultKind::kRouterFail:
      // Static dimension-order routing has no detour around a dead router.
      act.kind = DegradeActionKind::kUnrecoverable;
      act.note = "router " + std::to_string(ev.target) +
                 " hard-faulted: packet-switched fabric cannot reroute";
      return act;

    case FaultKind::kTsvFail:
    case FaultKind::kBankFail:
      break;
  }

  // Hard bank / TSV-column faults.
  const char* what = ev.kind == FaultKind::kTsvFail ? "tsv column" : "bank";
  if (!mot_fabric_) {
    act.kind = DegradeActionKind::kUnrecoverable;
    act.note = std::string(what) + " " + std::to_string(ev.target) +
               " hard-faulted: fabric has no reconfiguration path";
    return act;
  }
  if (!current.bank_active(ev.target)) {
    act.kind = DegradeActionKind::kNone;  // already outside the active set
    act.note = std::string(what) + " " + std::to_string(ev.target) +
               " already gated";
    return act;
  }
  if (auto target = gate_target(current, ev.target)) {
    act.kind = DegradeActionKind::kGateBanks;
    act.target = std::move(target);
    act.note = std::string(what) + " " + std::to_string(ev.target) +
               " hard-faulted: gating to " + act.target->name();
    return act;
  }
  act.kind = DegradeActionKind::kUnrecoverable;
  act.note = std::string(what) + " " + std::to_string(ev.target) +
             " hard-faulted inside the minimum centre group (MB" +
             std::to_string(core::kMinGatedBanks) + ")";
  return act;
}

}  // namespace mot3d::fault
