// Exact-bucket latency histograms with true percentiles.
//
// The simulator's latencies are small integers (cycles), so the one
// latency histogram keeps one exact count per latency value up to
// kMaxExact and computes p50/p95/p99 by rank walk: the reported
// percentile is a latency that actually occurred.  Values above
// kMaxExact land in a single overflow bucket that remembers its maximum
// (a percentile that falls there reports that maximum).  An integer sum
// of every sample gives the exact mean.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace mot3d::obs {

/// Summary of one latency population (SimResult / scenario JSON).
struct LatencyDigest {
  std::uint64_t count = 0;
  Cycle min = 0;
  Cycle max = 0;
  Cycle p50 = 0;
  Cycle p95 = 0;
  Cycle p99 = 0;

  bool empty() const { return count == 0; }
  bool operator==(const LatencyDigest&) const = default;
};

class LatencyHistogram {
 public:
  /// Largest latency tracked exactly; larger samples share one bucket.
  static constexpr Cycle kMaxExact = 1u << 20;

  void record(Cycle v) {
    ++count_;
    sum_ += v;
    if (v >= kMaxExact) {
      ++overflow_count_;
      if (v > overflow_max_) overflow_max_ = v;
      return;
    }
    if (v >= counts_.size()) counts_.resize(static_cast<std::size_t>(v) + 1, 0);
    ++counts_[static_cast<std::size_t>(v)];
  }

  std::uint64_t count() const { return count_; }
  /// Mean of every sample; 0.0 when empty (consult count() first where
  /// an empty population must read differently from a zero latency).
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Exact percentiles (or the overflow maximum when the rank falls in
  /// the overflow bucket); all zero when no sample was recorded.
  LatencyDigest digest() const;

  bool operator==(const LatencyHistogram&) const = default;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t overflow_count_ = 0;
  Cycle overflow_max_ = 0;
};

}  // namespace mot3d::obs
