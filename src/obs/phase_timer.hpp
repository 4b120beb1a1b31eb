// Host-side phase attribution for `mot3d_experiments bench` reports.
//
// Timing every tick with steady_clock would dominate the hot path, so
// the timer stamps one tick in 64 and extrapolates: good enough to say
// *where* simulator wall-time goes (fabric vs L2 vs coherence vs
// workload), useless for sub-percent accounting — which is all the
// perf-trajectory baselines need.  Clock reads never influence model
// state, so modeled metrics are unchanged whether timing is on or off.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

#include "obs/obs_config.hpp"

namespace mot3d::obs {

class PhaseTimer {
 public:
  enum Phase : std::size_t {
    kWorkload = 0,
    kCoherence,
    kFabric,
    kL2,
    kDram,
    kPhaseCount,
  };

  using clock = std::chrono::steady_clock;
  static constexpr std::uint64_t kSampleMask = 63;  ///< time 1 tick in 64

  /// Call once per tick; true when this tick should be timed.
  bool should_sample() { return (ticks_++ & kSampleMask) == 0; }

  void add(Phase p, clock::time_point begin, clock::time_point end) {
    ns_[p] += std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
                  .count();
  }

  /// Extrapolated totals (sampled nanoseconds x 64).
  PhaseSeconds totals() const {
    PhaseSeconds t;
    t.valid = true;
    const double scale = static_cast<double>(kSampleMask + 1) * 1e-9;
    t.workload = static_cast<double>(ns_[kWorkload]) * scale;
    t.coherence = static_cast<double>(ns_[kCoherence]) * scale;
    t.fabric = static_cast<double>(ns_[kFabric]) * scale;
    t.l2 = static_cast<double>(ns_[kL2]) * scale;
    t.dram = static_cast<double>(ns_[kDram]) * scale;
    return t;
  }

 private:
  std::uint64_t ticks_ = 0;
  std::array<std::int64_t, kPhaseCount> ns_{};
};

}  // namespace mot3d::obs
