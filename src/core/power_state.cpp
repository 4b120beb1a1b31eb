#include "core/power_state.hpp"

#include <stdexcept>

namespace mot3d::core {

PowerState::PowerState(std::string name, std::size_t total_cores,
                       std::size_t active_cores, std::size_t total_banks,
                       std::size_t active_banks)
    : name_(std::move(name)),
      total_cores_(total_cores),
      active_cores_(active_cores),
      total_banks_(total_banks),
      active_banks_(active_banks) {
  if (!is_pow2(total_cores) || !is_pow2(active_cores) || !is_pow2(total_banks) ||
      !is_pow2(active_banks)) {
    throw std::invalid_argument("power state sizes must be powers of two");
  }
  if (active_cores > total_cores || active_banks > total_banks) {
    throw std::invalid_argument("active count exceeds total");
  }
}

PowerState PowerState::full() { return {"Full", 16, 16, 32, 32}; }
PowerState PowerState::pc16_mb8() { return {"PC16-MB8", 16, 16, 32, 8}; }
PowerState PowerState::pc4_mb32() { return {"PC4-MB32", 16, 4, 32, 32}; }
PowerState PowerState::pc4_mb8() { return {"PC4-MB8", 16, 4, 32, 8}; }

const std::vector<PowerState>& PowerState::paper_states() {
  static const std::vector<PowerState> states = {full(), pc16_mb8(), pc4_mb32(),
                                                 pc4_mb8()};
  return states;
}

unsigned PowerState::forced_bank_levels() const {
  return log2_exact(total_banks_ / active_banks_);
}

std::uint32_t PowerState::centre_base(std::size_t total, std::size_t active,
                                      bool upper_half) {
  const auto t = static_cast<std::uint32_t>(total);
  const auto a = static_cast<std::uint32_t>(active);
  return upper_half ? t / 2 : t / 2 - a / 2;
}

std::uint32_t PowerState::centre_fold(std::uint32_t logical, std::size_t total,
                                      std::size_t active) {
  const auto t = static_cast<std::uint32_t>(total);
  const auto a = static_cast<std::uint32_t>(active);
  if (a >= t) return logical;        // nothing gated
  if (a == 1) return t / 2;          // every level forced; root folds right
  const unsigned n = log2_exact(t);
  const bool upper = (logical >> (n - 1)) != 0;
  const std::uint32_t low = logical & (a / 2 - 1);
  return centre_base(total, active, upper) + low;
}

BankId PowerState::remap_bank(BankId logical) const {
  return centre_fold(logical, total_banks_, active_banks_);
}

CoreId PowerState::core_of_thread(std::size_t thread) const {
  if (thread >= active_cores_) throw std::out_of_range("thread beyond active cores");
  if (active_cores_ == total_cores_) return static_cast<CoreId>(thread);
  return static_cast<CoreId>(total_cores_ / 2 - active_cores_ / 2 + thread);
}

std::vector<bool> PowerState::bank_mask() const {
  std::vector<bool> mask(total_banks_, false);
  for (std::size_t b = 0; b < total_banks_; ++b) {
    mask[b] = bank_active(static_cast<BankId>(b));
  }
  return mask;
}

bool PowerState::bank_active(BankId b) const {
  if (active_banks_ == total_banks_) return b < total_banks_;
  if (active_banks_ == 1) return b == total_banks_ / 2;
  const std::uint32_t lo = centre_base(total_banks_, active_banks_, false);
  return b >= lo && b < lo + active_banks_;
}

bool PowerState::core_active(CoreId c) const {
  if (active_cores_ == total_cores_) return c < total_cores_;
  if (active_cores_ == 1) return c == total_cores_ / 2;
  const std::uint32_t lo = centre_base(total_cores_, active_cores_, false);
  return c >= lo && c < lo + active_cores_;
}

}  // namespace mot3d::core
