// Cluster-wide barrier synchronisation (SPLASH-2 style spin barriers).
//
// Cores arriving at barrier `id` spin (burning spin power, see
// power::CorePowerParams::spin_fraction) until every participating core
// has arrived.  Barrier ids are dense and monotonically increasing within
// a run.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace mot3d::cpu {

class BarrierController {
 public:
  explicit BarrierController(std::size_t participants = 0)
      : participants_(participants) {}

  void set_participants(std::size_t n) { participants_ = n; }

  /// Register one participant's arrival at barrier `id` in cycle `now`.
  void arrive(std::uint32_t id, Cycle now) {
    if (arrivals_.size() <= id) {
      arrivals_.resize(id + 1, 0);
      release_cycle_.resize(id + 1, kNeverCycle);
    }
    if (++arrivals_[id] == participants_) release_cycle_[id] = now;
  }

  /// True once all participants have arrived at barrier `id`.
  bool released(std::uint32_t id) const {
    return id < arrivals_.size() && arrivals_[id] >= participants_;
  }

  /// True if barrier `id` was released in a cycle before `cycle`.
  bool released_before(std::uint32_t id, Cycle cycle) const {
    return released(id) && release_cycle_[id] < cycle;
  }

  /// Arrival count (diagnostics / tests).
  std::size_t arrivals(std::uint32_t id) const {
    return id < arrivals_.size() ? arrivals_[id] : 0;
  }

 private:
  std::size_t participants_;
  std::vector<std::size_t> arrivals_;
  std::vector<Cycle> release_cycle_;  ///< cycle of the releasing arrival
};

}  // namespace mot3d::cpu
