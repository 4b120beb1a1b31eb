// Thermal-aware vault remapping policy: a hysteresis "isTooHot" swap
// balancer in the spirit of thermal-aware DRAM management.  Pure decision
// logic — the cluster evaluates it at thermal sampling boundaries (exact
// cycles both schedulers land on) and executes accepted swaps through the
// existing reconfiguration drain, so the policy itself never perturbs
// scheduler bit-identity.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace mot3d::dram3d {

struct VaultRemapConfig {
  bool enabled = false;
  double too_hot_c = 70.0;     ///< a vault above this is a swap candidate
  double min_delta_c = 3.0;    ///< hysteresis: hot-cool spread must exceed
  Cycle cooldown_cycles = 30'000;  ///< minimum spacing between swaps
};

/// An accepted decision: exchange the traffic of two physical vaults.
struct VaultSwap {
  std::size_t hot = 0;
  std::size_t cool = 0;
};

class VaultRemapPolicy {
 public:
  /// Cores stay clock-held this long after a swap while the logical
  /// address map migrates (charged like a reconfig reprogram delay).
  static constexpr Cycle kMigrateFreezeCycles = 500;

  explicit VaultRemapPolicy(const VaultRemapConfig& cfg) : cfg_(cfg) {}

  /// Evaluate one thermal sample: `temps[v]` is the current temperature of
  /// physical vault v (NaN-free), `alive[v]` gates candidates.  Returns a
  /// swap when the hottest alive vault isTooHot, the spread to the coolest
  /// alive vault clears the hysteresis band, and the cooldown has elapsed.
  std::optional<VaultSwap> decide(const std::vector<double>& temps,
                                  const std::vector<bool>& alive, Cycle now);

 private:
  VaultRemapConfig cfg_;
  bool ever_swapped_ = false;
  Cycle last_swap_ = 0;
};

}  // namespace mot3d::dram3d
