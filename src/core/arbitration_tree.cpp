#include "core/arbitration_tree.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace mot3d::core {

std::shared_ptr<const ArbitrationTree::Gating> ArbitrationTree::gating(
    const PowerState& state) {
  // Flags over the whole heap: the cores are the leaves [n-1, 2n-2], and
  // a switch is powered iff either child is.
  const std::size_t n = state.total_cores();
  Gating on(2 * n - 1, 0);
  for (std::size_t c = 0; c < n; ++c) {
    on[n - 1 + c] = state.core_active(static_cast<CoreId>(c)) ? 1 : 0;
  }
  for (std::size_t k = n - 1; k-- > 0;) on[k] = on[2 * k + 1] | on[2 * k + 2];
  return std::make_shared<const Gating>(on.begin(), on.begin() + (n - 1));
}

ArbitrationTree::ArbitrationTree(std::size_t total_cores)
    : total_cores_(total_cores) {
  if (!is_pow2(total_cores) || total_cores < 2) {
    throw std::invalid_argument("arbitration tree needs a power-of-two >= 2 inputs");
  }
  levels_ = log2_exact(total_cores);
  gating_ = std::make_shared<const Gating>(total_cores - 1, 1);
  prefer_.assign(total_cores - 1, 0);
}

std::size_t ArbitrationTree::configure(const PowerState& state) {
  if (state.total_cores() != total_cores_) {
    throw std::invalid_argument("power state core count mismatch");
  }
  configure(gating(state));
  return powered_switches();
}

void ArbitrationTree::configure(std::shared_ptr<const Gating> gating) {
  if (gating == nullptr || gating->size() != total_cores_ - 1) {
    throw std::invalid_argument("gating mask does not fit the tree");
  }
  gating_ = std::move(gating);
}

ArbitrationTree::Outcome ArbitrationTree::descend(unsigned level, std::size_t index,
                                                  const std::vector<bool>& requesting) {
  const std::size_t span = total_cores_ >> level;
  if (span == 1) {
    // Virtual leaf: the core's request wire.
    const bool req = index < requesting.size() && requesting[index];
    return {req, static_cast<CoreId>(index)};
  }
  const std::size_t k = node_index(level, index);
  if ((*gating_)[k] == 0) return {false, 0};

  const Outcome left = descend(level + 1, index * 2, requesting);
  const Outcome right = descend(level + 1, index * 2 + 1, requesting);
  const std::optional<unsigned> choice = peek(k, left.requesting, right.requesting);
  if (!choice.has_value()) return {false, 0};
  return {true, *choice == 0 ? left.winner : right.winner};
}

void ArbitrationTree::commit_path(unsigned level, std::size_t index,
                                  const std::vector<bool>& requesting) {
  const std::size_t span = total_cores_ >> level;
  if (span == 1) return;
  const std::size_t k = node_index(level, index);
  const Outcome left = descend(level + 1, index * 2, requesting);
  const Outcome right = descend(level + 1, index * 2 + 1, requesting);
  const std::optional<unsigned> choice = peek(k, left.requesting, right.requesting);
  if (!choice.has_value()) return;
  // Round-robin priority rotates only along the granted spine; switches in
  // losing subtrees keep their pointers — this is what bounds any core's
  // wait by the number of contenders.
  commit(k, *choice);
  commit_path(level + 1, index * 2 + *choice, requesting);
}

std::optional<CoreId> ArbitrationTree::arbitrate(const std::vector<bool>& requesting) {
  const Outcome out = descend(0, 0, requesting);
  if (!out.requesting) return std::nullopt;
  commit_path(0, 0, requesting);
  return out.winner;
}

std::optional<CoreId> ArbitrationTree::arbitrate_sparse(const CoreId* candidates,
                                                        std::size_t count,
                                                        SparseScratch& scratch) {
  std::vector<std::uint8_t>& node_req = scratch.node_req;
  std::vector<std::uint32_t>& marked = scratch.marked;
  const std::size_t nodes = 2 * total_cores_ - 1;
  if (node_req.size() < nodes) node_req.assign(nodes, 0);
  // Phase 1: raise each candidate's request wire and propagate it upward
  // through powered switches.  A node's flag ends up true exactly when the
  // recursive descend() would report Outcome.requesting for it: the node is
  // powered and some candidate leaf reaches it through powered switches.
  const Gating& powered = *gating_;
  for (std::size_t k = 0; k < count; ++k) {
    const CoreId c = candidates[k];
    assert(c < total_cores_);
    std::size_t idx = total_cores_ - 1 + c;  // virtual leaf heap slot
    if (node_req[idx]) continue;
    node_req[idx] = 1;
    marked.push_back(static_cast<std::uint32_t>(idx));
    while (idx != 0) {
      idx = (idx - 1) / 2;
      if (node_req[idx]) break;            // path already raised
      if (powered[idx] == 0) break;        // gated subtree blocks the wire
      node_req[idx] = 1;
      marked.push_back(static_cast<std::uint32_t>(idx));
    }
  }

  std::optional<CoreId> winner;
  if (node_req[0]) {
    // Phase 2: one root-to-leaf descent.  Each peek sees the same child
    // request flags the full recursive walk computes, so the round-robin
    // choices — and the committed spine — are identical.
    std::size_t idx = 0;
    while (idx < total_cores_ - 1) {
      const std::size_t l = idx * 2 + 1;
      const std::size_t r = idx * 2 + 2;
      const std::optional<unsigned> choice =
          peek(idx, node_req[l] != 0, node_req[r] != 0);
      assert(choice.has_value());
      commit(idx, *choice);
      idx = (*choice == 0) ? l : r;
    }
    winner = static_cast<CoreId>(idx - (total_cores_ - 1));
  }

  for (const std::uint32_t m : marked) node_req[m] = 0;
  marked.clear();
  return winner;
}

std::size_t ArbitrationTree::powered_switches() const {
  return static_cast<std::size_t>(
      std::count(gating_->begin(), gating_->end(), std::uint8_t{1}));
}

}  // namespace mot3d::core
