// Deterministic fault injection for the 3-D cluster (robustness axis).
//
// The paper's MoT interconnect and stacked L2 live or die by their TSV
// columns and banks; this subsystem models what happens when they stop
// being perfect.  A FaultSchedule turns a seeded fault envelope (or an
// explicit event list) into a sorted, reproducible sequence of timed
// fault events before the run starts — the same seed always produces the
// same injection trace, independent of scheduler mode or thread count,
// which is what the dense-vs-event differentials under faults pin.
//
// Fault taxonomy (see DESIGN.md):
//   kTsvDegrade     MoT: a bank's TSV column develops a marginal via and
//                   every grant pays extra circuit-hold cycles (degraded-
//                   latency mode) plus a retry-energy charge.
//   kTsvFail        MoT: the TSV column is dead — the bank is unreachable
//                   and must be gated out via core::reconfigure.
//   kBankFail       an L2 bank hard-faults.  The MoT gates around it
//                   (drain, flush, directory migration, remap); the
//                   packet-switched baselines have no reconfiguration
//                   path and the run ends with a structured failure.
//   kLinkDegrade    NoC: a router's link serialises — one flit per
//                   (1 + magnitude) cycles instead of one per cycle.
//   kRouterFail     NoC: a router hard-faults; the static dimension-order
//                   routing cannot route around it — unrecoverable.
//   kDropInvalidate directed-test fault: swallow the next `magnitude`
//                   coherence invalidation messages, wedging the issuing
//                   bank (the watchdog's no-progress detector must catch
//                   it and turn the hang into a diagnosable failure).
//   kVaultFail      stacked DRAM: a physical vault hard-faults.  The
//                   stacked backend remaps its logical vaults onto the
//                   least-loaded survivor; the constant-latency backend
//                   (or the last alive vault dying) has no remap target
//                   and the run ends with a structured failure.  Injected
//                   through explicit event lists only, never rate-drawn,
//                   so existing seeded schedules stay byte-identical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace mot3d::fault {

enum class FaultKind {
  kTsvDegrade,
  kTsvFail,
  kBankFail,
  kLinkDegrade,
  kRouterFail,
  kDropInvalidate,
  kVaultFail,
};

const char* fault_kind_name(FaultKind k);

/// Injection horizon: generated fault cycles are uniform in
/// [1, kFaultHorizonCycles]; events past the run's end never fire.
inline constexpr Cycle kFaultHorizonCycles = 20'000;

/// One-off control/repair action cost (drain sequencing, ctr reprogram
/// masking, spare-resource switch) charged to the interconnect ledger per
/// applied degradation action, pJ.
inline constexpr double kRepairEnergyPj = 50.0;

/// One timed fault.  `target` is a physical bank id (MoT/bank faults) or a
/// router id (NoC faults); `magnitude` is the degrade penalty in cycles
/// (0 = DegradationManager::kDefaultPenaltyCycles) or the drop count for
/// kDropInvalidate.
struct FaultEvent {
  Cycle cycle = 0;
  FaultKind kind = FaultKind::kTsvDegrade;
  std::uint32_t target = 0;
  std::uint32_t magnitude = 0;

  bool operator==(const FaultEvent&) const = default;
};

/// One cell of a scenario's fault axis (ScenarioSpec::fault_envelopes).
/// Rates are expected events per 10'000 cycles over the injection horizon.
struct FaultEnvelope {
  bool enabled = false;
  double tsv_fault_rate = 0.0;   ///< degraded-latency faults (TSV/link)
  double bank_fault_rate = 0.0;  ///< hard faults (bank/TSV-dead/router)
  std::uint64_t seed = 7;

  bool operator==(const FaultEnvelope&) const = default;
};

/// Full configuration of the fault subsystem (ClusterConfig::fault).
struct FaultConfig {
  bool enabled = false;
  /// Explicit events injected in addition to the rate-generated ones
  /// (directed tests use this; empty for scenario sweeps).
  std::vector<FaultEvent> events;
  double tsv_fault_rate = 0.0;
  double bank_fault_rate = 0.0;
  std::uint64_t seed = 7;

  static FaultConfig from_envelope(const FaultEnvelope& env) {
    FaultConfig cfg;
    cfg.enabled = env.enabled;
    cfg.tsv_fault_rate = env.tsv_fault_rate;
    cfg.bank_fault_rate = env.bank_fault_rate;
    cfg.seed = env.seed;
    return cfg;
  }
};

/// Everything a run reports about its fault trajectory (SimResult).
struct FaultSummary {
  bool enabled = false;
  /// "ok" (no material degradation), "degraded" (faults absorbed via
  /// penalties/throttles/gating) or "failed" (unrecoverable topology —
  /// the run ended early with partial results instead of wedging).
  std::string outcome = "ok";
  std::uint64_t injected = 0;       ///< events processed before run end
  std::uint64_t recovered = 0;      ///< absorbed (incl. already-gated no-ops)
  std::uint64_t unrecoverable = 0;
  std::uint64_t bank_gate_events = 0;  ///< reconfigurations triggered by faults
  std::uint64_t degraded_cycles = 0;   ///< cycles after the first degradation
  double repair_energy_pj = 0.0;       ///< repair actions + degraded-grant retries
  std::string fail_reason;             ///< non-empty when outcome == "failed"
};

/// The pre-computed, sorted fault event trace of one run.  Construction is
/// the only place randomness exists: the cluster replays the list at exact
/// cycles, so both schedulers see identical injections.
class FaultSchedule {
 public:
  FaultSchedule(const FaultConfig& cfg, bool mot_fabric,
                std::size_t total_banks, std::size_t num_routers);

  const std::vector<FaultEvent>& events() const { return events_; }

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace mot3d::fault
