#include "cluster/advisor.hpp"

#include <sstream>

namespace mot3d::cluster {

namespace {

/// Spin-cycles / (cores * cycles) above which the app is treated as
/// scalability-limited (recommend 4 cores).  Measured on the paper's
/// workloads at Full connection: the limited group spins 0.78-0.83 of all
/// core-cycles (serial phases are further stretched by their memory
/// stalls), the scalable group 0.28-0.34 (barrier jitter only).
constexpr double kSpinRatioLimit = 0.50;
/// Serial sections have a signature plain load imbalance lacks: thread 0
/// keeps working while every other core spins.  Only when thread 0's spin
/// time is below this fraction of the others' average is the spin
/// attributed to Amdahl serialisation rather than barrier jitter.
constexpr double kSpinAsymmetryLimit = 0.60;
/// Resident L2 footprint (fraction of the 8-bank capacity) below which
/// bank gating is considered safe at 200 ns DRAM.
constexpr double kMb8FillLimit = 1.00;
/// At fast on-chip DRAM (< 100 ns), the footprint guard is relaxed by this
/// factor — extra misses are cheap (the Fig. 8 effect).
constexpr double kFastDramRelax = 2.5;
/// Fraction of the profiling run spent with cores held by the thermal
/// governor above which the workload is considered thermally limited.
constexpr double kThrottledFractionLimit = 0.02;
/// L2 line size the resident footprint is counted in, bytes.
constexpr std::size_t kLineBytes = 32;

}  // namespace

StateRecommendation recommend_power_state(const SimResult& profile) {
  StateRecommendation rec;
  if (profile.cycles == 0 || profile.cores.empty()) {
    rec.rationale = "empty profile: stay at Full connection";
    return rec;
  }

  // --- parallelism scalability: Amdahl waste observed as barrier spin ---
  std::uint64_t spin = 0;
  for (const cpu::CoreStats& c : profile.cores) spin += c.spin_cycles;
  const double denom =
      static_cast<double>(profile.cycles) * static_cast<double>(profile.cores.size());
  rec.spin_ratio = static_cast<double>(spin) / denom;

  // Serial-section signature: thread 0 (which executes the serial phases)
  // barely spins while the rest wait for it.  Symmetric spin is barrier
  // jitter — gating cores would not recover it.
  const double spin0 = static_cast<double>(profile.cores.front().spin_cycles);
  const double spin_others =
      profile.cores.size() > 1
          ? (static_cast<double>(spin) - spin0) /
                static_cast<double>(profile.cores.size() - 1)
          : 0.0;
  const bool asymmetric =
      spin_others > 0.0 && spin0 < kSpinAsymmetryLimit * spin_others;
  rec.gate_cores = asymmetric && rec.spin_ratio > kSpinRatioLimit;

  // --- L2 demand: resident footprint vs. the 8-bank capacity ---
  rec.resident_l2_bytes = profile.l2_resident_lines * kLineBytes;
  const double mb8_capacity = 8.0 * 64.0 * 1024.0;
  double fill_limit = kMb8FillLimit;
  const bool fast_dram = profile.dram_latency_ns < 100.0;
  if (fast_dram) fill_limit *= kFastDramRelax;
  // With 4 cores the private share of the footprint shrinks too; be
  // slightly more permissive when cores are also gated.
  if (rec.gate_cores) fill_limit *= 1.25;
  rec.gate_banks =
      static_cast<double>(rec.resident_l2_bytes) < fill_limit * mb8_capacity;

  if (rec.gate_cores && rec.gate_banks) {
    rec.state = core::PowerState::pc4_mb8();
  } else if (rec.gate_cores) {
    rec.state = core::PowerState::pc4_mb32();
  } else if (rec.gate_banks) {
    rec.state = core::PowerState::pc16_mb8();
  } else {
    rec.state = core::PowerState::full();
  }

  std::ostringstream why;
  why << "spin_ratio=" << rec.spin_ratio << (asymmetric ? " asymmetric" : " symmetric")
      << (rec.gate_cores ? " (limited scalability: 4 cores suffice)"
                         : " (scales: keep 16 cores)")
      << "; resident L2=" << rec.resident_l2_bytes / 1024 << "KB vs "
      << static_cast<std::size_t>(fill_limit * mb8_capacity) / 1024
      << "KB guard"
      << (rec.gate_banks ? " (fits: gate 24 banks)" : " (demands capacity: keep 32)")
      << (fast_dram ? " [fast DRAM relaxes the bank guard]" : "");
  rec.rationale = why.str();
  return rec;
}

StateRecommendation recommend_power_state_thermal(const SimResult& profile) {
  StateRecommendation rec = recommend_power_state(profile);
  const thermal::ThermalSummary& t = profile.thermal;
  if (!t.enabled) return rec;

  const double throttled =
      profile.cycles == 0
          ? 0.0
          : static_cast<double>(t.throttled_cycles) /
                static_cast<double>(profile.cycles);
  const bool limited = t.throttle_events > 0 ||
                       throttled > kThrottledFractionLimit ||
                       t.peak_c >= t.ceiling_c;
  if (!limited || rec.gate_banks) return rec;

  rec.gate_banks = true;
  rec.state = rec.gate_cores ? core::PowerState::pc4_mb8()
                             : core::PowerState::pc16_mb8();
  std::ostringstream why;
  why << rec.rationale << "; thermal: peak " << t.peak_c << "C vs ceiling "
      << t.ceiling_c << "C with " << t.throttle_events
      << " throttle events — gate banks for headroom despite the footprint";
  rec.rationale = why.str();
  return rec;
}

}  // namespace mot3d::cluster
