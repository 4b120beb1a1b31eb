// Power states of the reconfigurable 3-D MoT cluster (paper Section III,
// Table I, Figs. 4/7/8).
//
// A power state selects how many cores and L2 banks stay powered.  Gating
// is *centre-folding*: the routing-tree levels that become don't-care run
// in user-defined mode and force packets toward the die centre, so the
// surviving banks are the contiguous centre group and the active wire
// spans shrink (Fig. 5).  This reproduces the paper's Fig. 4 example
// exactly: with 8 banks and level 1 forced, M0->M2, M1->M3, M6->M4, M7->M5
// while M2..M5 survive in place.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace mot3d::core {

/// Table I's MB8: the fewest banks the thermal governor and graceful
/// degradation gate a power state down to.
inline constexpr std::size_t kMinGatedBanks = 8;

class PowerState {
 public:
  /// `total_*` describe the physical cluster; `active_*` what stays on.
  /// All four values must be powers of two, active <= total.
  PowerState(std::string name, std::size_t total_cores, std::size_t active_cores,
             std::size_t total_banks, std::size_t active_banks);

  // -- the paper's four states (Table I) --
  static PowerState full();       ///< 16 cores, 32 banks
  static PowerState pc16_mb8();   ///< 16 cores,  8 banks
  static PowerState pc4_mb32();   ///<  4 cores, 32 banks
  static PowerState pc4_mb8();    ///<  4 cores,  8 banks
  static const std::vector<PowerState>& paper_states();

  const std::string& name() const { return name_; }
  std::size_t total_cores() const { return total_cores_; }
  std::size_t active_cores() const { return active_cores_; }
  std::size_t total_banks() const { return total_banks_; }
  std::size_t active_banks() const { return active_banks_; }

  /// Number of routing-tree levels running in user-defined mode
  /// (log2(total/active) bank-index bits become don't-care).
  unsigned forced_bank_levels() const;

  /// Physical bank serving logical bank `logical` in this state — the
  /// centre-fold map implemented by the user-defined routing switches.
  BankId remap_bank(BankId logical) const;

  /// Physical core hosting software thread `thread` (0-based among the
  /// active cores); active cores are the centre group.
  CoreId core_of_thread(std::size_t thread) const;

  /// Powered-bank mask over the physical banks.
  std::vector<bool> bank_mask() const;

  bool bank_active(BankId b) const;
  bool core_active(CoreId c) const;

  bool operator==(const PowerState& o) const {
    return total_cores_ == o.total_cores_ && active_cores_ == o.active_cores_ &&
           total_banks_ == o.total_banks_ && active_banks_ == o.active_banks_;
  }

  /// First physical id of the active centre group of `active` out of
  /// `total` slots (shared by banks and cores).
  static std::uint32_t centre_base(std::size_t total, std::size_t active,
                                   bool upper_half);

  /// Centre-fold of `logical` among `total` slots onto the active group.
  static std::uint32_t centre_fold(std::uint32_t logical, std::size_t total,
                                   std::size_t active);

 private:
  std::string name_;
  std::size_t total_cores_;
  std::size_t active_cores_;
  std::size_t total_banks_;
  std::size_t active_banks_;
};

}  // namespace mot3d::core
