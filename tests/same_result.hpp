// Field-by-field equality of two SimResults: every modeled counter,
// histogram, energy ledger entry and per-core statistic, compared exactly.
// The canonical run JSON omits the per-core stall, spin, idle, busy and
// finish cycles (none enters the energy ledger), so the dense == event
// oracles compare whole results with this instead.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "cluster/cluster.hpp"

namespace mot3d::cluster {

inline void expect_same_histogram(const Histogram& a, const Histogram& b,
                                  const char* what) {
  ASSERT_EQ(a.num_buckets(), b.num_buckets()) << what;
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
  EXPECT_DOUBLE_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.overflow(), b.overflow()) << what;
  for (std::size_t i = 0; i < a.num_buckets(); ++i) {
    ASSERT_EQ(a.bucket_count(i), b.bucket_count(i)) << what << " bucket " << i;
  }
}

inline void expect_same_result(const SimResult& dense, const SimResult& event) {
  EXPECT_EQ(dense.cycles, event.cycles);
  EXPECT_EQ(dense.instructions, event.instructions);

  expect_same_histogram(dense.l2_latency, event.l2_latency, "l2_latency");
  expect_same_histogram(dense.l2_hit_latency, event.l2_hit_latency,
                        "l2_hit_latency");

  EXPECT_EQ(dense.l2.hits, event.l2.hits);
  EXPECT_EQ(dense.l2.misses, event.l2.misses);
  EXPECT_EQ(dense.l2.writebacks, event.l2.writebacks);
  EXPECT_EQ(dense.l2.bank_conflict_cycles, event.l2.bank_conflict_cycles);
  EXPECT_DOUBLE_EQ(dense.l2.dynamic_energy_pj, event.l2.dynamic_energy_pj);

  EXPECT_EQ(dense.dram.reads, event.dram.reads);
  EXPECT_EQ(dense.dram.writes, event.dram.writes);
  EXPECT_EQ(dense.dram.total_wait_cycles, event.dram.total_wait_cycles);
  EXPECT_DOUBLE_EQ(dense.dram.dynamic_energy_pj, event.dram.dynamic_energy_pj);

  EXPECT_EQ(dense.interconnect.requests_injected,
            event.interconnect.requests_injected);
  EXPECT_EQ(dense.interconnect.requests_delivered,
            event.interconnect.requests_delivered);
  EXPECT_EQ(dense.interconnect.responses_injected,
            event.interconnect.responses_injected);
  EXPECT_EQ(dense.interconnect.responses_delivered,
            event.interconnect.responses_delivered);
  EXPECT_EQ(dense.interconnect.arbitration_wait_cycles,
            event.interconnect.arbitration_wait_cycles);
  // interconnect.output_visits and core_ticks are host work, not modeled:
  // the dense scheduler ticks the fabric and the cores more often.

  EXPECT_EQ(dense.l2_resident_lines, event.l2_resident_lines);
  EXPECT_DOUBLE_EQ(dense.l1d_miss_rate, event.l1d_miss_rate);
  EXPECT_DOUBLE_EQ(dense.l1i_miss_rate, event.l1i_miss_rate);

  for (power::Component c :
       {power::Component::kCore, power::Component::kL1, power::Component::kL2,
        power::Component::kInterconnect, power::Component::kDram}) {
    EXPECT_DOUBLE_EQ(dense.energy.dynamic_pj(c), event.energy.dynamic_pj(c))
        << power::component_name(c);
    EXPECT_DOUBLE_EQ(dense.energy.static_pj(c), event.energy.static_pj(c))
        << power::component_name(c);
  }
  EXPECT_DOUBLE_EQ(dense.edp_pj_s, event.edp_pj_s);
  EXPECT_DOUBLE_EQ(dense.avg_power_w, event.avg_power_w);

  // Coherence traffic is a modeled quantity like any other: the directory
  // counters must agree to the last message.
  EXPECT_EQ(dense.coherence_enabled, event.coherence_enabled);
  EXPECT_EQ(dense.coherence.invalidations, event.coherence.invalidations);
  EXPECT_EQ(dense.coherence.inv_acks, event.coherence.inv_acks);
  EXPECT_EQ(dense.coherence.data_forwards, event.coherence.data_forwards);
  EXPECT_EQ(dense.coherence.upgrades, event.coherence.upgrades);
  EXPECT_EQ(dense.coherence.sharing_misses, event.coherence.sharing_misses);
  EXPECT_EQ(dense.coherence.dir_accesses, event.coherence.dir_accesses);
  EXPECT_EQ(dense.coherence.dir_peak_entries, event.coherence.dir_peak_entries);
  EXPECT_EQ(dense.coh_dir_entries, event.coh_dir_entries);

  EXPECT_DOUBLE_EQ(dense.l2_bank_hit_rate_min, event.l2_bank_hit_rate_min);
  EXPECT_DOUBLE_EQ(dense.l2_bank_hit_rate_max, event.l2_bank_hit_rate_max);
  EXPECT_DOUBLE_EQ(dense.l2_bank_hit_rate_spread, event.l2_bank_hit_rate_spread);

  ASSERT_EQ(dense.cores.size(), event.cores.size());
  for (std::size_t i = 0; i < dense.cores.size(); ++i) {
    EXPECT_EQ(dense.cores[i].instructions, event.cores[i].instructions) << i;
    EXPECT_EQ(dense.cores[i].busy_cycles, event.cores[i].busy_cycles) << i;
    EXPECT_EQ(dense.cores[i].stall_cycles, event.cores[i].stall_cycles) << i;
    EXPECT_EQ(dense.cores[i].spin_cycles, event.cores[i].spin_cycles) << i;
    EXPECT_EQ(dense.cores[i].idle_cycles, event.cores[i].idle_cycles) << i;
    EXPECT_EQ(dense.cores[i].l2_requests, event.cores[i].l2_requests) << i;
    EXPECT_EQ(dense.cores[i].l1_writebacks, event.cores[i].l1_writebacks) << i;
    EXPECT_EQ(dense.cores[i].ifetch_misses, event.cores[i].ifetch_misses) << i;
    EXPECT_EQ(dense.cores[i].invalidations_received,
              event.cores[i].invalidations_received)
        << i;
    EXPECT_EQ(dense.cores[i].upgrades, event.cores[i].upgrades) << i;
    EXPECT_EQ(dense.cores[i].coherence_forwards, event.cores[i].coherence_forwards)
        << i;
    EXPECT_EQ(dense.cores[i].finish_cycle, event.cores[i].finish_cycle) << i;
  }
}

}  // namespace mot3d::cluster
