#include "common/stats.hpp"

namespace mot3d {

Histogram::Histogram(std::uint64_t bucket_width, std::size_t num_buckets)
    : bucket_width_(bucket_width == 0 ? 1 : bucket_width),
      buckets_(num_buckets == 0 ? 1 : num_buckets, 0) {}

void Histogram::add(std::uint64_t value) {
  stat_.add(static_cast<double>(value));
  const std::size_t idx = static_cast<std::size_t>(value / bucket_width_);
  if (idx < buckets_.size()) {
    ++buckets_[idx];
  } else {
    ++overflow_;
  }
}

std::uint64_t Histogram::quantile(double q) const {
  if (stat_.count() == 0) return 0;
  if (q <= 0.0) return min();
  if (q >= 1.0) return max();
  const double target = q * static_cast<double>(stat_.count());
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (static_cast<double>(seen) >= target) {
      return (static_cast<std::uint64_t>(i) + 1) * bucket_width_ - 1;
    }
  }
  return max();
}

}  // namespace mot3d
