// Cycle-level transport model of the reconfigurable circuit-switched 3-D
// MoT interconnect (the paper's primary contribution).
//
// Semantics follow the circuit-switched MoT of refs [1][10] with the
// paper's modified routing switches:
//  * Each core owns its routing tree — requests from different cores never
//    block each other (non-blocking network).
//  * Contention exists only at the per-bank arbitration trees: when several
//    requests reach the same bank, one wins per cycle (hierarchical
//    round-robin, starvation-free) and the others stall in place.
//  * A granted transaction holds the bank's TSV channel for the bank
//    service time (circuit switching).
//  * The response network is mirrored and contention-free (each in-order
//    core has a single outstanding transaction).
//  * configure(PowerState) reprograms the ctr signals of every routing
//    switch (conventional / user-defined / gated), which remaps logical
//    banks onto the powered centre group and shortens the pipeline
//    latencies (Fig. 5 / Table I).
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "common/index_set.hpp"
#include "common/interconnect.hpp"
#include "common/ring_buffer.hpp"
#include "core/arbitration_tree.hpp"
#include "core/mot_timing.hpp"
#include "core/power_state.hpp"
#include "core/routing_tree.hpp"

namespace mot3d::core {

struct MotInterconnectConfig {
  /// Circuit hold of a granted bank channel (matches the L2 bank service
  /// time so a second grant cannot overrun the bank).
  unsigned bank_hold_cycles = 2;
};

class MotInterconnect final : public Interconnect {
 public:
  MotInterconnect(const MotTimingModel& timing, const PowerState& initial,
                  MotInterconnectConfig cfg = {});

  bool try_inject_request(const MemRequest& req, Cycle now) override;
  bool try_inject_response(const MemResponse& resp, Cycle now) override;
  void tick(Cycle now) override;
  bool idle() const override;
  Cycle next_event(Cycle now) const override;

  double dynamic_energy_pj() const override { return dynamic_energy_pj_; }
  double leakage_mw() const override { return timing_.leakage_mw(state_); }

  /// Reprogram every switch for `state` (the ctr_0/ctr_1 distribution of
  /// Fig. 3); instantaneous — drain + flush sequencing is
  /// core::reconfigure's job.
  void configure(const PowerState& state);

  const PowerState& state() const { return state_; }
  const MotStateTiming& state_timing() const { return state_timing_; }

  /// Physical bank the current switch configuration sends `logical` to.
  BankId route(BankId logical) const;

  /// Per-grant retry energy of a degraded bank channel, pJ (the marginal
  /// via needs a stronger drive/retry pulse each circuit establishment).
  static constexpr double kFaultRetryEnergyPj = 0.5;

  /// Fault injection: a marginal TSV via on bank `b`'s column.  Every
  /// grant to the bank holds the circuit `cycles` longer (degraded-latency
  /// mode) and pays kFaultRetryEnergyPj.  Cumulative and permanent —
  /// reconfiguration does not heal silicon.
  void add_bank_fault_penalty(BankId b, unsigned cycles);

  /// Retry energy charged so far to degraded-bank grants (already included
  /// in dynamic_energy_pj(); broken out for the fault report).
  double fault_retry_pj() const { return fault_retry_pj_; }

 private:
  struct InFlight {
    MemRequest req;
    BankId physical_bank = 0;
    Cycle eligible = 0;  ///< cycle it reaches the arbitration stage
    bool valid = false;
  };
  struct PendingResponse {
    MemResponse resp;
    Cycle due = 0;
  };

  MotTimingModel timing_;
  MotInterconnectConfig cfg_;
  PowerState state_;
  MotStateTiming state_timing_;

  void add_waiter(CoreId core, BankId bank);
  void remove_waiter(CoreId core, BankId bank);

  RoutingTree routing_;                    ///< shared resolver (per-core trees
                                           ///< are identically configured)
  std::vector<ArbitrationTree> bank_arbiters_;  ///< one per physical bank,
                                                ///< sharing one gating mask
  /// The bank trees' one arbitrate_sparse scratch: tick() arbitrates one
  /// bank at a time.
  ArbitrationTree::SparseScratch arb_scratch_;
  std::vector<InFlight> core_slot_;        ///< one outstanding per core
  std::vector<Cycle> bank_free_at_;        ///< circuit hold per bank
  RingBuffer<PendingResponse> responses_;  ///< constant-delay return path
  /// Valid slots grouped by target physical bank, plus the set of banks
  /// with any waiter (empty iff no slot is valid).  tick()/next_event()
  /// walk only the pending banks and their waiters instead of the full
  /// banks x cores cross product — the scan that dominated 256-core
  /// heavy-sharing runs.
  std::vector<std::vector<CoreId>> bank_waiters_;
  IndexSet pending_banks_;
  std::vector<CoreId> candidates_;         ///< tick() scratch (eligible waiters)
  std::vector<unsigned> bank_fault_penalty_;  ///< extra hold per physical bank
  /// Dynamic energy of one request / response traversal in state_,
  /// indexed by whether it carries a line; set by configure().
  std::array<double, 2> request_pj_{};
  std::array<double, 2> response_pj_{};
  double dynamic_energy_pj_ = 0.0;
  double fault_retry_pj_ = 0.0;
};

}  // namespace mot3d::core
