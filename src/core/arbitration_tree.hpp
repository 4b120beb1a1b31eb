// The per-bank arbitration tree of the 3-D MoT (paper Fig. 2(a)).
//
// A binary tree of 2-input round-robin arbitration switches (Fig. 2(c))
// merges the requests of up to `total_cores` cores heading for one cache
// bank: the packet "must be arbitrated among the other simultaneous
// packets heading for the same cache bank".  Every cycle at most one
// contender wins and proceeds onto the bank's TSV bus; the hierarchical
// round-robin pointers guarantee starvation freedom with a worst-case
// wait bounded by the number of contenders.
//
// Gating depends only on the core mask, so every bank's tree of one
// cluster shares one mask of powered switches, computed once per
// configuration; a tree itself keeps one round-robin byte per switch.
// The trees of one MotInterconnect arbitrate one at a time, so they also
// share one arbitrate_sparse scratch, which the interconnect owns.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "core/power_state.hpp"

namespace mot3d::core {

class ArbitrationTree {
 public:
  /// Powered flag per switch in heap order (root first, children of k at
  /// 2k+1 and 2k+2): a switch stays powered iff at least one core of its
  /// subtree is active.
  using Gating = std::vector<std::uint8_t>;

  /// arbitrate_sparse's working memory: a request flag per heap node
  /// (internal nodes share indices with the switches; leaves occupy
  /// [total_cores-1, 2·total_cores-2]) and the flags one call raised,
  /// which it clears before returning.  All zero between calls, so trees
  /// that never arbitrate at the same time may share one; sized on first
  /// use.
  struct SparseScratch {
    std::vector<std::uint8_t> node_req;
    std::vector<std::uint32_t> marked;
  };

  /// One arbitration switch's grant: nothing when it is gated or neither
  /// input requests, the one requester, or input `prefer` on a tie.  The
  /// switch then gives the next tie to the loser.
  static std::optional<unsigned> grant(bool powered, unsigned prefer,
                                       bool req0, bool req1) {
    if (!powered) return std::nullopt;
    if (!req0 && !req1) return std::nullopt;
    if (req0 && req1) return prefer;
    return req0 ? 0u : 1u;
  }

  /// The gating of a `state.total_cores()`-input tree, computed bottom-up
  /// in O(cores).
  static std::shared_ptr<const Gating> gating(const PowerState& state);

  /// A tree with every switch powered.
  explicit ArbitrationTree(std::size_t total_cores);

  /// Program the tree for `state` (gates switches whose whole subtree of
  /// cores is powered off); returns the number of powered switches.
  std::size_t configure(const PowerState& state);

  /// Gate the tree by `gating` (from gating()), which trees of the same
  /// shape share.
  void configure(std::shared_ptr<const Gating> gating);

  /// Grant one requester among `requesting` (indexed by physical core id);
  /// returns the winner or nullopt when nobody requests.  Updates the
  /// round-robin pointers along the granted path only, as the hardware does.
  std::optional<CoreId> arbitrate(const std::vector<bool>& requesting);

  /// Sparse entry point: `candidates` lists the core ids requesting this
  /// cycle (no duplicates, any order).  Bit-identical to arbitrate() with
  /// exactly those bits set — request wires propagate bottom-up from the
  /// candidate leaves through powered switches, then one root-to-leaf
  /// descent evaluates the same peek decisions the recursive walk would
  /// and commits along the granted spine.  Cost is O(candidates · levels)
  /// instead of O(total_cores), which is what makes per-bank arbitration
  /// affordable at 256-1024 cores.  Works in `scratch`, which no other
  /// tree may be using at the same time.
  std::optional<CoreId> arbitrate_sparse(const CoreId* candidates,
                                         std::size_t count,
                                         SparseScratch& scratch);

  std::size_t total_cores() const { return total_cores_; }
  unsigned levels() const { return levels_; }
  std::size_t powered_switches() const;

 private:
  struct Outcome {
    bool requesting = false;
    CoreId winner = 0;
  };
  Outcome descend(unsigned level, std::size_t index,
                  const std::vector<bool>& requesting);
  void commit_path(unsigned level, std::size_t index,
                   const std::vector<bool>& requesting);
  /// The grant of the switch at heap node `k`, without rotating it.
  std::optional<unsigned> peek(std::size_t k, bool req0, bool req1) const {
    return grant((*gating_)[k] != 0, prefer_[k], req0, req1);
  }
  void commit(std::size_t k, unsigned winner) {
    prefer_[k] = static_cast<std::uint8_t>(1u - winner);
  }
  std::size_t node_index(unsigned level, std::size_t index) const {
    return (std::size_t{1} << level) - 1 + index;
  }

  std::size_t total_cores_;
  unsigned levels_;
  std::shared_ptr<const Gating> gating_;
  /// Round-robin pointer per switch, heap order: the input a tie goes to.
  std::vector<std::uint8_t> prefer_;
};

}  // namespace mot3d::core
