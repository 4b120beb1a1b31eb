// Heap allocations per L2 miss on the memory-side hot path.  This file
// replaces the global operator new to count calls, so it links into its
// own test executable (mot3d_alloc_tests) rather than mot3d_tests.
//
// Eight banks each take a fresh line every 40 cycles, so every access
// misses and rides the Miss bus to DRAM and back.  After a warm-up that
// lets every queue and heap reach its steady-state capacity, a miss may
// allocate only for the rare std::deque block turnover in the Miss-bus
// request queues — not per read.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "mem/dram.hpp"
#include "mem/l2_system.hpp"
#include "memory_test_doubles.hpp"

namespace {
std::uint64_t g_allocations = 0;
bool g_counting = false;
}  // namespace

void* operator new(std::size_t bytes) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace mot3d::mem {
namespace {

TEST(L2MissAllocations, FewerThanHalfAnAllocationPerMiss) {
  constexpr std::size_t kBanks = 8;
  constexpr Cycle kPeriod = 40;
  constexpr Cycle kWarmup = 20'000;
  constexpr Cycle kMeasured = 200'000;

  L2Config l2_cfg;
  l2_cfg.total_banks = kBanks;
  DramBackend dram(DramConfig{}, kBanks);
  L2System l2(l2_cfg, dram);
  FakeTransport transport;
  dram.set_read_sink(&l2);
  l2.set_transport(&transport);

  std::uint64_t next_id = 0;
  Addr next_line = 0;
  std::uint64_t misses_at_start = 0;
  for (Cycle t = 0; t < kWarmup + kMeasured; ++t) {
    if (t == kWarmup) {
      misses_at_start = l2.stats().misses;
      g_counting = true;
    }
    if (t % kPeriod == 0) {
      // One never-seen line per bank: lines interleave across banks.
      for (BankId b = 0; b < kBanks; ++b) {
        l2.deliver(MemRequest{.id = next_id++,
                              .core = 0,
                              .bank = b,
                              .addr = next_line++ * l2_cfg.line_bytes,
                              .issue_cycle = t},
                   t);
      }
      transport.responses.clear();
      transport.answered_at.clear();
    }
    l2.tick(t);
    dram.tick(t);
  }
  g_counting = false;

  const std::uint64_t misses = l2.stats().misses - misses_at_start;
  ASSERT_EQ(misses, kBanks * kMeasured / kPeriod);
  const double per_miss =
      static_cast<double>(g_allocations) / static_cast<double>(misses);
  RecordProperty("allocations_per_miss", std::to_string(per_miss));
  EXPECT_LT(per_miss, 0.5) << g_allocations << " allocations over " << misses
                           << " misses";
}

}  // namespace
}  // namespace mot3d::mem
