// A set of small dense indices stored as a bitset with its population
// count, walked in ascending index order.
//
// The scheduler keeps its per-core work lists in these, the MoT its banks
// with waiting requests and the L2 its live banks: visiting the set bits
// of a 1024-core set reads 16 words instead of 1024 cores, and the count
// makes "is anyone due?" a single compare.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mot3d {

class IndexSet {
 public:
  explicit IndexSet(std::size_t capacity = 0) : words_((capacity + 63) / 64, 0) {}

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  bool contains(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  void insert(std::size_t i) {
    std::uint64_t& w = words_[i >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    count_ += (w & bit) == 0;
    w |= bit;
  }
  void erase(std::size_t i) {
    std::uint64_t& w = words_[i >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    count_ -= (w & bit) != 0;
    w &= ~bit;
  }
  void assign(std::size_t i, bool member) { member ? insert(i) : erase(i); }
  void clear() {
    if (count_ == 0) return;
    for (std::uint64_t& w : words_) w = 0;
    count_ = 0;
  }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// The smallest member >= from, or npos when there is none.  A walk
  /// `for (i = next(0); i != npos; i = next(i + 1))` re-reads the words at
  /// every step, so it sees every change made since its last step, and it
  /// can stop early.
  std::size_t next(std::size_t from) const {
    std::size_t w = from >> 6;
    if (w >= words_.size()) return npos;
    std::uint64_t word = words_[w] & (~std::uint64_t{0} << (from & 63));
    while (word == 0) {
      if (++w == words_.size()) return npos;
      word = words_[w];
    }
    return (w << 6) | static_cast<unsigned>(std::countr_zero(word));
  }

  /// Calls f(i) for every member in ascending order.  The walk resumes
  /// from i + 1 after each call, so f may erase any member and may insert
  /// members above i, which this same walk then visits; members f inserts
  /// below i wait for the next walk.
  template <typename F>
  void for_each(F&& f) {
    if (count_ == 0) return;
    for (std::size_t i = next(0); i != npos; i = next(i + 1)) f(i);
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t count_ = 0;
};

}  // namespace mot3d
