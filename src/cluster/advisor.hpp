// Runtime power-state advisor — the policy side of the paper's conclusion:
// "the reconfigurable 3-D MoT interconnect capable of power-gating ... is
// necessary to exploit various programs characteristics such as parallelism
// scalability and L2 cache demand."
//
// Given the observable counters of a profiling interval run at Full
// connection, the advisor estimates the two characteristics the paper
// identifies and maps them onto Table I's power states:
//
//   * parallelism scalability, from the fraction of core-cycles burnt
//     spinning at barriers (Amdahl waste): high spin ⇒ drop to 4 cores;
//   * L2 cache demand, from the resident L2 footprint and the miss traffic
//     relative to the 8-bank capacity: a comfortably-fitting footprint ⇒
//     gate 24 banks.
//
// The DRAM latency biases the bank decision exactly as Fig. 8 shows: the
// cheaper a miss, the more aggressively banks can be gated.
#pragma once

#include <string>

#include "cluster/cluster.hpp"
#include "core/power_state.hpp"

namespace mot3d::cluster {

struct StateRecommendation {
  core::PowerState state = core::PowerState::full();
  double spin_ratio = 0.0;          ///< measured Amdahl waste
  std::size_t resident_l2_bytes = 0;///< measured footprint
  bool gate_cores = false;
  bool gate_banks = false;
  std::string rationale;
};

/// Analyse a Full-connection profiling run and recommend the Table I state
/// (the footprint is the result's l2_resident_lines of 32-byte lines).
StateRecommendation recommend_power_state(const SimResult& profile);

/// Thermal-aware layer over recommend_power_state: when the profiling run
/// carried a thermal summary (SimResult::thermal) showing throttling or a
/// ceiling violation, the bank side of the recommendation is demoted —
/// gating 24 banks removes their leakage *and* shrinks the hot TSV field,
/// which buys thermal headroom even when the footprint guard alone would
/// have kept the capacity.  Performance advice defers to the envelope.
StateRecommendation recommend_power_state_thermal(const SimResult& profile);

}  // namespace mot3d::cluster
