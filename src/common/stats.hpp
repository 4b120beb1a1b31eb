// Lightweight statistics collection: counters, means, histograms.
//
// Every simulator component exposes its activity through these types so the
// cluster top level and the bench harnesses can roll results up uniformly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace mot3d {

/// Running scalar summary: count / sum / min / max / mean.
class RunningStat {
 public:
  void add(double x) {
    if (count_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    sum_ += x;
    ++count_;
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  // min()/max() return 0.0 when empty — indistinguishable from a real
  // zero sample, so serialisers must consult empty() and emit an
  // explicit null/omission instead (the metrics sampler puts
  // obs::MetricsRegistry::kNull).
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  bool empty() const { return count_ == 0; }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-width bucket histogram over [0, bucket_width * num_buckets); values
/// beyond the last bucket land in the overflow bucket.
class Histogram {
 public:
  Histogram() : Histogram(1, 64) {}
  Histogram(std::uint64_t bucket_width, std::size_t num_buckets);

  void add(std::uint64_t value);

  std::uint64_t count() const { return stat_.count(); }
  double mean() const { return stat_.mean(); }
  std::uint64_t min() const { return static_cast<std::uint64_t>(stat_.min()); }
  std::uint64_t max() const { return static_cast<std::uint64_t>(stat_.max()); }

  /// Value v such that at least `q` (0..1) of samples are <= v, computed from
  /// bucket upper bounds (conservative).
  std::uint64_t quantile(double q) const;

  std::uint64_t bucket_count(std::size_t i) const { return buckets_.at(i); }
  std::size_t num_buckets() const { return buckets_.size(); }
  std::uint64_t overflow() const { return overflow_; }

  void reset();

 private:
  std::uint64_t bucket_width_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t overflow_ = 0;
  RunningStat stat_;
};

}  // namespace mot3d
