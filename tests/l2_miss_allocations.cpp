// Heap allocations on three hot paths, and heap bytes requested by
// cluster construction.  This file replaces the global operator new to
// count calls and bytes, so it links into its own test executable
// (mot3d_alloc_tests) rather than mot3d_tests.
//
// L2 misses: eight banks each take a fresh line every 40 cycles, so every
// access misses and rides the Miss bus to DRAM and back.  After a warm-up
// that lets every queue and heap reach its steady-state capacity, and
// every set of each bank its first line, a miss allocates nothing: the
// Miss-bus request queues are rings that keep their capacity.
//
// MoT round trips: every core injects whenever its circuit is free, and
// each request the fabric delivers is answered the same cycle.  After
// warm-up, a round trip allocates nothing: the message energies are a
// per-state table.
//
// Packet-fabric messages: the same round trips on each NoC baseline.
// After warm-up, a message allocates nothing: it waits in a reused slot
// of the network's table, and the flit queues and delivery batches have
// reached their steady-state capacity.
//
// Served cache hits: a one-job run_batch that the sweep service answers
// from its cache reads the entry with one read straight into the payload
// it returns, and hands that outcome over without copying it.  Through
// the request loop, the request is parsed in place and each response line
// is built in one buffer.  An entry past the size bound is rejected
// before a buffer is sized for it.
//
// Construction: a MoT cluster requests heap for what a run can touch
// from the start, not for every L2 set it might touch later: a cache set
// gets its ways on its first line, an idle Miss-bus queue holds no
// buffer, and the bank arbitration trees share one gating mask and one
// arbitration scratch.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "cacti/sram_model.hpp"
#include "cluster/cluster.hpp"
#include "core/mot_interconnect.hpp"
#include "mem/dram.hpp"
#include "mem/l2_system.hpp"
#include "memory_test_doubles.hpp"
#include "noc/network.hpp"
#include "sim/sweep_service.hpp"
#include "workload/app_profile.hpp"

namespace {
std::uint64_t g_allocations = 0;
std::uint64_t g_bytes = 0;
bool g_counting = false;
}  // namespace

// All out of line: where GCC inlines one of a new/delete pair but not the
// other, -Wmismatched-new-delete flags malloc() against operator delete
// or operator new against free().
[[gnu::noinline]] void* operator new(std::size_t bytes) {
  if (g_counting) {
    ++g_allocations;
    g_bytes += bytes;
  }
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mot3d::mem {
namespace {

TEST(L2MissAllocations, NoAllocationPerMiss) {
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
      g_allocations = 0;
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
  EXPECT_LT(per_miss, 0.01) << g_allocations << " allocations over " << misses
                            << " misses";
}

TEST(MotRoundTripAllocations, NoAllocationPerRequest) {
  constexpr Cycle kWarmup = 2'000;
  constexpr Cycle kMeasured = 20'000;

  const core::MotTimingModel model(phys::default_technology(),
                                   phys::FloorplanParams{},
                                   cacti::SramBankConfig{});
  const core::PowerState full = core::PowerState::full();
  core::MotInterconnect icn(model, full);

  std::uint64_t next_id = 0;
  std::uint64_t requests_at_start = 0;
  for (Cycle t = 0; t < kWarmup + kMeasured; ++t) {
    if (t == kWarmup) {
      requests_at_start = icn.stats().requests_injected;
      g_allocations = 0;
      g_counting = true;
    }
    // Every core retries each cycle; half the requests carry a line.
    for (CoreId c = 0; c < full.total_cores(); ++c) {
      const MemRequest req{.id = next_id,
                           .core = c,
                           .bank = static_cast<BankId>((c * 7 + t) % full.total_banks()),
                           .is_write = next_id % 2 == 0,
                           .issue_cycle = t};
      if (icn.try_inject_request(req, t)) ++next_id;
    }
    icn.tick(t);
    for (const MemRequest& r : icn.delivered_requests()) {
      icn.try_inject_response(MemResponse{.id = r.id,
                                          .core = r.core,
                                          .bank = r.bank,
                                          .is_write = r.is_write,
                                          .issue_cycle = r.issue_cycle},
                              t);
    }
    icn.clear_deliveries();
  }
  g_counting = false;

  const std::uint64_t requests = icn.stats().requests_injected - requests_at_start;
  ASSERT_GT(requests, kMeasured);
  const double per_request =
      static_cast<double>(g_allocations) / static_cast<double>(requests);
  RecordProperty("allocations_per_request", std::to_string(per_request));
  EXPECT_LT(per_request, 0.01) << g_allocations << " allocations over "
                               << requests << " requests";
}

TEST(NocRoundTripAllocations, NoAllocationPerMessage) {
  constexpr Cycle kWarmup = 5'000;
  constexpr Cycle kMeasured = 50'000;

  const power::InterconnectPowerModel power(
      phys::WireModel(phys::default_technology()));
  const struct {
    noc::NocTopology topology;
    const char* name;
  } fabrics[] = {{noc::NocTopology::kTrueMesh3d, "mesh3d"},
                 {noc::NocTopology::kHybridBusMesh, "busmesh"},
                 {noc::NocTopology::kHybridBusTree, "bustree"}};
  for (const auto& fabric : fabrics) {
    SCOPED_TRACE(fabric.name);
    const noc::NocConfig cfg;
    const auto icn = noc::make_noc(fabric.topology, cfg, power);
    auto delivered = [&icn] {
      return icn->stats().requests_delivered + icn->stats().responses_delivered;
    };

    std::uint64_t next_id = 0;
    std::uint64_t delivered_at_start = 0;
    for (Cycle t = 0; t < kWarmup + kMeasured; ++t) {
      if (t == kWarmup) {
        delivered_at_start = delivered();
        g_allocations = 0;
        g_counting = true;
      }
      // Every core offers a request each cycle; half of them carry a line.
      for (CoreId c = 0; c < cfg.num_cores; ++c) {
        const MemRequest req{.id = next_id,
                             .core = c,
                             .bank = static_cast<BankId>((c * 7 + t) % cfg.num_banks),
                             .is_write = next_id % 2 == 0,
                             .issue_cycle = t};
        if (icn->try_inject_request(req, t)) ++next_id;
      }
      icn->tick(t);
      for (const MemRequest& r : icn->delivered_requests()) {
        icn->try_inject_response(MemResponse{.id = r.id,
                                             .core = r.core,
                                             .bank = r.bank,
                                             .is_write = r.is_write,
                                             .issue_cycle = r.issue_cycle},
                                 t);
      }
      icn->clear_deliveries();
    }
    g_counting = false;

    // The Bus-Tree's quadrant buses deliver fewer messages than cycles.
    const std::uint64_t messages = delivered() - delivered_at_start;
    ASSERT_GT(messages, kMeasured / 4);
    const double per_message =
        static_cast<double>(g_allocations) / static_cast<double>(messages);
    RecordProperty(std::string("allocations_per_message_") + fabric.name,
                   std::to_string(per_message));
    EXPECT_LT(per_message, 0.01) << g_allocations << " allocations over "
                                 << messages << " messages";
  }
}

TEST(ServedHitAllocations, OneJobHitStaysAtItsCount) {
  // 11 today: the spec JSON and its digest (2), the batch's hash, dedupe
  // and outcome containers (5), the outcome's spec hash, the entry's path,
  // the payload buffer and the payload's digest.  No count depends on the
  // cache directory's path.
  constexpr double kMaxPerHit = 11;
  constexpr int kHits = 100;
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "served_hit_allocations";
  fs::remove_all(dir);
  sim::ServiceConfig cfg;
  cfg.cache_dir = dir.string();
  cfg.threads = 1;
  sim::SweepService service(cfg);
  sim::SweepJob job;
  job.run.app = "fft";
  job.scale = 0.005;
  const std::vector<sim::SweepJob> jobs = {job};
  ASSERT_FALSE(service.run_batch(jobs).at(0).cache_hit);
  ASSERT_TRUE(service.run_batch(jobs).at(0).cache_hit);  // warm-up

  g_allocations = 0;
  g_counting = true;
  for (int i = 0; i < kHits; ++i) {
    const std::vector<sim::JobOutcome> out = service.run_batch(jobs);
    g_counting = false;
    ASSERT_TRUE(out.at(0).cache_hit);
    g_counting = true;
  }
  g_counting = false;
  fs::remove_all(dir);

  const double per_hit =
      static_cast<double>(g_allocations) / static_cast<double>(kHits);
  RecordProperty("allocations_per_hit", std::to_string(per_hit));
  EXPECT_LE(per_hit, kMaxPerHit);
}

TEST(ServedHitAllocations, ServedRequestLineStaysAtItsCount) {
  // One request line answered from the cache through the batch loop, as
  // perfbench's service_replay serves it: 29 today.  Parsing makes 14
  // (the document's members and its four axis arrays, the four axis
  // lists, the spec's three parsed axes, the grid and the job list),
  // run_batch 11 (above), and the loop 4: the request line and the three
  // response lines, each built in one buffer.
  constexpr double kMaxPerHit = 29;
  constexpr int kHits = 100;
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "served_request_allocations";
  fs::remove_all(dir);
  sim::ServiceConfig cfg;
  cfg.cache_dir = dir.string();
  cfg.threads = 1;
  sim::SweepService service(cfg);
  const std::string line =
      R"({"id": 17, "apps": ["fft"], "fabrics": ["mot"], "states": ["Full"], )"
      R"("dram": ["200"], "scale": 0.005, "seed": 42})";
  std::istringstream in;
  std::ostringstream out;
  // The streams are reset outside the count, as a client's would be.
  const auto serve = [&](bool count) {
    in.clear();
    in.str(line);
    out.str("");
    g_counting = count;
    const int rc =
        sim::service_loop(in, out, service, sim::ServiceLoopMode::kBatch);
    g_counting = false;
    return rc;
  };
  ASSERT_EQ(serve(false), 0);
  ASSERT_EQ(serve(false), 0);  // warm-up: a hit
  g_allocations = 0;
  for (int i = 0; i < kHits; ++i) {
    ASSERT_EQ(serve(true), 0);
    ASSERT_NE(out.str().find(R"("cache_hit": true)"), std::string::npos);
  }
  fs::remove_all(dir);

  const double per_hit =
      static_cast<double>(g_allocations) / static_cast<double>(kHits);
  RecordProperty("allocations_per_served_hit", std::to_string(per_hit));
  EXPECT_LE(per_hit, kMaxPerHit);
}

TEST(ServedHitAllocations, OversizedEntryIsNotReadIntoMemory) {
  // A sparse entry one byte past the 1 MiB bound is corrupt before any of
  // it is read: the batch that finds it requests no more heap than a
  // plain miss of the same job, which recomputes and stores it too.
  constexpr std::int64_t kBound = std::int64_t{1} << 20;
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "oversized_entry_allocations";
  fs::remove_all(dir);
  sim::ServiceConfig cfg;
  cfg.cache_dir = dir.string();
  cfg.threads = 1;
  sim::SweepService service(cfg);
  sim::SweepJob job;
  job.run.app = "fft";
  job.scale = 0.005;
  const std::vector<sim::SweepJob> jobs = {job};
  const fs::path entry = dir / (sim::job_hash(job) + ".entry");
  const auto miss_bytes = [&] {
    g_bytes = 0;
    g_counting = true;
    const std::vector<sim::JobOutcome> out = service.run_batch(jobs);
    g_counting = false;
    EXPECT_TRUE(out.at(0).ok());
    EXPECT_FALSE(out[0].cache_hit);
    return static_cast<std::int64_t>(g_bytes);
  };
  miss_bytes();  // warm-up
  fs::remove(entry);
  const std::int64_t plain = miss_bytes();
  fs::resize_file(entry, kBound + 1);
  const std::int64_t oversized = miss_bytes();
  fs::remove_all(dir);

  EXPECT_EQ(service.counters().snapshot().corrupt_entries, 1u);
  RecordProperty("oversized_probe_bytes", std::to_string(oversized - plain));
  EXPECT_LT(oversized - plain, kBound / 16);
}

/// Heap bytes the Cluster constructor requests for `cfg`.
std::uint64_t construction_bytes(cluster::ClusterConfig cfg) {
  g_bytes = 0;
  g_counting = true;
  const cluster::Cluster built(std::move(cfg));
  g_counting = false;
  return g_bytes;
}

TEST(ClusterConstructionBytes, FollowWhatARunTouches) {
  // Each bound sits above today's request (0.13 MB, 9.7 MB) and far below
  // what the full L2 tag arrays alone take: 1.5 MB at 16x32 (32 banks x
  // 2048 ways x 24 B) and 100 MB at 1024x2048.  A scratch per bank tree
  // (2 x cores - 1 B each) would add 4.2 MB at 1024x2048; an L1I warm-up
  // that grows its ways by doubling, 2.9 MB.
  struct Shape {
    const char* app;
    core::PowerState state;
    double max_mb;
  };
  const Shape shapes[] = {
      {"fft", core::PowerState::full(), 0.25},
      {"all_to_all", core::PowerState("Full1024x2048", 1024, 1024, 2048, 2048),
       10.0},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.app);
    const double mb =
        static_cast<double>(construction_bytes(cluster::make_paper_config(
            workload::profile_by_name(shape.app), cluster::Fabric::kMot,
            shape.state, DramPreset::kDdr3_200ns, /*scale=*/0.02))) /
        (1024.0 * 1024.0);
    RecordProperty(std::string("construction_mb_") + shape.state.name(),
                   std::to_string(mb));
    EXPECT_LT(mb, shape.max_mb) << shape.state.name();
  }
}

}  // namespace
}  // namespace mot3d::mem
