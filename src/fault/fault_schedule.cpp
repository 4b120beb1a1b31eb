#include "fault/fault_schedule.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace mot3d::fault {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kTsvDegrade: return "tsv-degrade";
    case FaultKind::kTsvFail: return "tsv-fail";
    case FaultKind::kBankFail: return "bank-fail";
    case FaultKind::kLinkDegrade: return "link-degrade";
    case FaultKind::kRouterFail: return "router-fail";
    case FaultKind::kDropInvalidate: return "drop-invalidate";
    case FaultKind::kVaultFail: return "vault-fail";
  }
  return "?";
}

namespace {

std::uint64_t expected_events(double rate_per_10k, Cycle horizon) {
  if (rate_per_10k <= 0.0 || horizon == 0) return 0;
  return static_cast<std::uint64_t>(
      std::llround(rate_per_10k * static_cast<double>(horizon) / 10'000.0));
}

}  // namespace

FaultSchedule::FaultSchedule(const FaultConfig& cfg, bool mot_fabric,
                             std::size_t total_banks, std::size_t num_routers) {
  events_ = cfg.events;

  // All randomness happens here, in a fixed draw order, from one seeded
  // SplitMix64 stream: the trace is a pure function of the config.
  Rng rng(cfg.seed);
  const std::uint64_t n_degrade = expected_events(cfg.tsv_fault_rate, kFaultHorizonCycles);
  const std::uint64_t n_hard = expected_events(cfg.bank_fault_rate, kFaultHorizonCycles);

  for (std::uint64_t i = 0; i < n_degrade; ++i) {
    FaultEvent ev;
    ev.cycle = 1 + rng.next_below(kFaultHorizonCycles);
    if (mot_fabric || num_routers == 0) {
      ev.kind = FaultKind::kTsvDegrade;
      ev.target = static_cast<std::uint32_t>(rng.next_below(total_banks));
    } else {
      ev.kind = FaultKind::kLinkDegrade;
      ev.target = static_cast<std::uint32_t>(rng.next_below(num_routers));
    }
    events_.push_back(ev);
  }

  for (std::uint64_t i = 0; i < n_hard; ++i) {
    FaultEvent ev;
    ev.cycle = 1 + rng.next_below(kFaultHorizonCycles);
    ev.target = static_cast<std::uint32_t>(rng.next_below(total_banks));
    // On the MoT, alternate between the two hard-fault flavours (a dead
    // TSV column and a dead bank array reach the same gating path but are
    // reported distinctly); the packet fabrics only see bank faults.
    ev.kind = (mot_fabric && i % 2 == 1) ? FaultKind::kTsvFail : FaultKind::kBankFail;
    events_.push_back(ev);
  }

  std::sort(events_.begin(), events_.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.cycle != b.cycle) return a.cycle < b.cycle;
              if (a.kind != b.kind) return a.kind < b.kind;
              if (a.target != b.target) return a.target < b.target;
              return a.magnitude < b.magnitude;
            });
}

}  // namespace mot3d::fault
