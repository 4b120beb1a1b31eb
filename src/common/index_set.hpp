// A set of small dense indices stored as a bitset with its population
// count, walked in ascending index order.
//
// The scheduler keeps its per-core work lists in these: visiting the set
// bits of a 1024-core set reads 16 words instead of 1024 cores, and the
// count makes "is anyone due?" a single compare.
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

  /// Calls f(i) for every member in ascending order.  The word is re-read
  /// after each call, so f may erase any member and may insert members
  /// above i, which this same walk then visits; members f inserts below i
  /// wait for the next walk.
  template <typename F>
  void for_each(F&& f) {
    if (count_ == 0) return;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(word));
        f((w << 6) | b);
        word = b == 63 ? 0 : words_[w] & (~std::uint64_t{0} << (b + 1));
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t count_ = 0;
};

}  // namespace mot3d
