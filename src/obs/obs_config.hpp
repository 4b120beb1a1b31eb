// Observability configuration and per-run summary types.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "obs/latency.hpp"

namespace mot3d::obs {

/// ClusterConfig::obs — everything defaults to off; a run without
/// observability records nothing and pays only null-pointer checks.
struct ObsConfig {
  /// Record a full event trace (exported as Chrome-trace JSON).
  bool trace = false;
  /// Sample the interval metrics registry every epoch.
  bool metrics = false;
  Cycle metrics_epoch_cycles = 10'000;
  /// Attribute host wall-time to simulator phases (`bench --json`).
  bool phase_timing = false;

  /// True when any latency histogram / trace / metrics machinery runs.
  bool enabled() const { return trace || metrics; }
};

/// Latency digests surfaced as obs_* fields in scenario JSON.
struct ObsSummary {
  bool enabled = false;
  LatencyDigest l2_rt;         ///< L2 request round-trip (issue -> response)
  LatencyDigest inv_rt;        ///< invalidation round-trip (send -> ack)
  LatencyDigest dram_service;  ///< DRAM enqueue -> completion
  /// Per-physical-vault service digests (stacked-DRAM runs only; empty for
  /// the constant-latency backend, so legacy reporting is unchanged).
  std::vector<LatencyDigest> dram_vault_service;
};

/// Host wall-seconds attributed to simulator phases (extrapolated from
/// a 1-in-64 tick sample; see PhaseTimer).
struct PhaseSeconds {
  bool valid = false;
  double workload = 0.0;   ///< core ticks (trace replay, L1)
  double coherence = 0.0;  ///< coherence ack injection
  double fabric = 0.0;     ///< demand injection + interconnect tick/drain
  double l2 = 0.0;         ///< L2 bank pipelines + directory
  double dram = 0.0;       ///< DRAM backend
};

}  // namespace mot3d::obs
