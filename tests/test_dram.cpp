// Unit tests for the DRAM backend: latency presets, Miss-bus round-robin
// fairness, channel serialisation and the optional open-page policy.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mem/dram.hpp"
#include "memory_test_doubles.hpp"

namespace mot3d::mem {
namespace {

DramConfig cfg_200() {
  DramConfig c;
  c.access_latency_ns = 200.0;
  c.bus_transfer_cycles = 2;
  c.channel_burst_cycles = 4;
  return c;
}

TEST(DramPresets, PaperLatencies) {
  EXPECT_DOUBLE_EQ(dram_latency_ns(DramPreset::kDdr3_200ns), 200.0);
  EXPECT_DOUBLE_EQ(dram_latency_ns(DramPreset::kWideIo_63ns), 63.0);
  EXPECT_DOUBLE_EQ(dram_latency_ns(DramPreset::kWeis3d_42ns), 42.0);
  EXPECT_NE(std::string(dram_preset_name(DramPreset::kWideIo_63ns)).find("63"),
            std::string::npos);
}

TEST(Dram, SingleReadLatency) {
  DramBackend dram(cfg_200(), 4);
  RecordingSink sink;
  dram.set_read_sink(&sink);
  dram.read(0, 0x1000, 0, /*tag=*/7);
  for (Cycle t = 0; t <= 300 && sink.done.empty(); ++t) dram.tick(t);
  ASSERT_EQ(sink.done.size(), 1u);
  EXPECT_EQ(sink.done[0].tag, 7u);
  EXPECT_EQ(sink.done[0].addr, 0x1000u);
  // bus (2) + latency (200); completion fires on the tick after due.
  EXPECT_GE(sink.done[0].at, 202u);
  EXPECT_LE(sink.done[0].at, 208u);
  EXPECT_TRUE(dram.idle());
  EXPECT_EQ(dram.stats().reads, 1u);
}

TEST(Dram, WritesArePostedAndDrain) {
  DramBackend dram(cfg_200(), 4);
  dram.write(1, 0x2000, 0);
  dram.write(1, 0x3000, 0);
  for (Cycle t = 0; t <= 50; ++t) dram.tick(t);
  EXPECT_TRUE(dram.idle());
  EXPECT_EQ(dram.stats().writes, 2u);
}

TEST(Dram, RoundRobinAcrossRequesters) {
  // Three requesters each enqueue 2 reads at t=0; grants must interleave
  // 0,1,2,0,1,2 (the paper's round-robin Miss bus).
  DramBackend dram(cfg_200(), 3);
  RecordingSink sink;
  dram.set_read_sink(&sink);
  for (std::uint32_t r = 0; r < 3; ++r) {
    for (int k = 0; k < 2; ++k) dram.read(r, 0x1000 * r + 0x10 * k, 0, 0);
  }
  for (Cycle t = 0; t <= 400; ++t) dram.tick(t);
  std::vector<std::uint32_t> completion_order;
  for (const RecordingSink::Done& d : sink.done) {
    completion_order.push_back(d.requester);
  }
  ASSERT_EQ(completion_order.size(), 6u);
  EXPECT_EQ(completion_order, (std::vector<std::uint32_t>{0, 1, 2, 0, 1, 2}));
}

TEST(Dram, RoundRobinWrapsPastAHeadDatedInTheFuture) {
  // Requester 0 takes the first grant, so requester 1 is next in the round
  // robin.  Its head is dated cycle 50 (the L2 dates refills after the tag
  // check), while requester 0's next read is ready at cycle 10: the grant
  // must wrap past 1 (not yet due) and 2 (empty) back to 0, and requester
  // 1 is granted once cycle 50 arrives.
  DramBackend dram(cfg_200(), 3);
  RecordingSink sink;
  dram.set_read_sink(&sink);
  dram.read(0, 0x1000, 0, /*tag=*/1);
  dram.tick(0);
  dram.read(1, 0x2000, 50, /*tag=*/3);
  dram.read(0, 0x3000, 10, /*tag=*/2);

  EXPECT_EQ(dram.next_event(1), 10u);  // requester 0's head
  for (Cycle t = 1; t <= 10; ++t) dram.tick(t);
  EXPECT_EQ(dram.next_event(11), 50u);  // requester 1's head
  for (Cycle t = 11; t <= 50; ++t) dram.tick(t);
  EXPECT_EQ(dram.next_event(51), 202u);  // only the first read's data left
  for (Cycle t = 51; t <= 400; ++t) dram.tick(t);

  // Each read: bus (2) + latency (200) from its grant at 0, 10 and 50.
  ASSERT_EQ(sink.done.size(), 3u);
  const std::uint32_t requesters[] = {0, 0, 1};
  const std::uint64_t tags[] = {1, 2, 3};
  const Cycle at[] = {202, 212, 252};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sink.done[i].requester, requesters[i]) << i;
    EXPECT_EQ(sink.done[i].tag, tags[i]) << i;
    EXPECT_EQ(sink.done[i].at, at[i]) << i;
  }
  EXPECT_EQ(dram.stats().total_wait_cycles, 0u);
  EXPECT_TRUE(dram.idle());
}

TEST(Dram, QueueingDelaysLaterRequests) {
  DramBackend dram(cfg_200(), 1);
  RecordingSink sink;
  dram.set_read_sink(&sink);
  for (int k = 0; k < 4; ++k) dram.read(0, 0x40u * k, 0, 0);
  for (Cycle t = 0; t <= 600; ++t) dram.tick(t);
  const std::vector<RecordingSink::Done>& done = sink.done;
  ASSERT_EQ(done.size(), 4u);
  // Channel serialisation spaces completions by >= burst cycles.
  for (std::size_t i = 1; i < done.size(); ++i) {
    EXPECT_GE(done[i].at, done[i - 1].at + 4);
  }
}

TEST(Dram, WaitCyclesAccounted) {
  DramBackend dram(cfg_200(), 1);
  RecordingSink sink;
  dram.set_read_sink(&sink);
  for (int k = 0; k < 3; ++k) dram.read(0, 0x40u * k, 0, 0);
  for (Cycle t = 0; t <= 600; ++t) dram.tick(t);
  EXPECT_EQ(sink.done.size(), 3u);
  EXPECT_GT(dram.stats().total_wait_cycles, 0u);
}

TEST(Dram, FasterPresetCompletesSooner) {
  DramConfig fast = cfg_200();
  fast.access_latency_ns = 42.0;
  DramBackend d42(fast, 1);
  DramBackend d200(cfg_200(), 1);
  RecordingSink s42, s200;
  d42.set_read_sink(&s42);
  d200.set_read_sink(&s200);
  d42.read(0, 0, 0, 0);
  d200.read(0, 0, 0, 0);
  for (Cycle t = 0; t <= 300; ++t) {
    d42.tick(t);
    d200.tick(t);
  }
  ASSERT_EQ(s42.done.size(), 1u);
  ASSERT_EQ(s200.done.size(), 1u);
  const Cycle c42 = s42.done[0].at, c200 = s200.done[0].at;
  EXPECT_LT(c42, c200);
  EXPECT_NEAR(static_cast<double>(c200 - c42), 158.0, 3.0);
}

TEST(Dram, OpenPagePolicyTracksRowHits) {
  DramConfig c = cfg_200();
  c.open_page_policy = true;
  DramBackend dram(c, 1);
  RecordingSink sink;
  dram.set_read_sink(&sink);
  // Same 4 KB page twice, then a different page.
  dram.read(0, 0x0000, 0, 0);
  dram.read(0, 0x0100, 0, 0);
  dram.read(0, 0x9000, 0, 0);
  for (Cycle t = 0; t <= 800; ++t) dram.tick(t);
  const std::vector<RecordingSink::Done>& done = sink.done;
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(dram.stats().page_hits, 1u);
  EXPECT_EQ(dram.stats().page_misses, 2u);
  // The row hit is served faster than a full access.
  EXPECT_LT(done[1].at - done[0].at, 200u);
}

TEST(Dram, FirstAccessIsAlwaysAPageMiss) {
  // Regression: the open-row tracker starts at kNoOpenPage.  A sentinel
  // that aliased a real page number (page 0, or a truncated kNeverCycle)
  // would count the very first access as a spurious row hit.
  DramConfig c = cfg_200();
  c.open_page_policy = true;
  DramBackend dram(c, 1);
  RecordingSink sink;
  dram.set_read_sink(&sink);
  dram.read(0, 0x0000, 0, 0);
  for (Cycle t = 0; t <= 300; ++t) dram.tick(t);
  EXPECT_EQ(dram.stats().page_misses, 1u);
  EXPECT_EQ(dram.stats().page_hits, 0u);
  // The miss pays the full access latency, not the row-hit discount.
  ASSERT_EQ(sink.done.size(), 1u);
  EXPECT_GE(sink.done[0].at, 202u);
}

TEST(Dram, RowHitSavingMatchesConfiguredFraction) {
  DramConfig c = cfg_200();
  c.open_page_policy = true;
  DramBackend dram(c, 1);
  RecordingSink sink;
  dram.set_read_sink(&sink);
  dram.read(0, 0x0000, 0, 0);
  for (Cycle t = 0; t <= 300; ++t) dram.tick(t);
  ASSERT_TRUE(dram.idle());
  dram.read(0, 0x0040, 300, 0);
  for (Cycle t = 300; t <= 600; ++t) dram.tick(t);
  ASSERT_EQ(dram.stats().page_hits, 1u);
  ASSERT_EQ(sink.done.size(), 2u);
  // Identical pipelines except the access latency: the service-time delta
  // is exactly the configured row-hit saving.
  const Cycle miss_lat = sink.done[0].at - 0;
  const Cycle hit_lat = sink.done[1].at - 300;
  EXPECT_EQ(miss_lat - hit_lat,
            static_cast<Cycle>(std::llround(c.access_latency_ns *
                                            c.row_hit_fraction_saved)));
}

TEST(Dram, OpenPageSequenceHitsAndMissesDirected) {
  DramConfig c = cfg_200();
  c.open_page_policy = true;
  DramBackend dram(c, 1);
  // Page sequence 0,0,1,1,0: hits at the two repeats, misses elsewhere.
  const Addr seq[] = {0x0000, 0x0800, 0x1000, 0x1800, 0x0000};
  RecordingSink sink;
  dram.set_read_sink(&sink);
  for (Addr a : seq) dram.read(0, a, 0, 0);
  for (Cycle t = 0; t <= 2000; ++t) dram.tick(t);
  EXPECT_EQ(sink.done.size(), 5u);
  EXPECT_EQ(dram.stats().page_hits, 2u);
  EXPECT_EQ(dram.stats().page_misses, 3u);
}

TEST(Dram, EnergyAccounted) {
  DramBackend dram(cfg_200(), 1);
  dram.read(0, 0, 0, 0);
  dram.write(0, 64, 0);
  for (Cycle t = 0; t <= 300; ++t) dram.tick(t);
  EXPECT_DOUBLE_EQ(dram.stats().dynamic_energy_pj,
                   2.0 * cfg_200().energy_per_access_pj);
}

TEST(Dram, RejectsZeroRequesters) {
  EXPECT_THROW(DramBackend(cfg_200(), 0), std::invalid_argument);
}

}  // namespace
}  // namespace mot3d::mem
