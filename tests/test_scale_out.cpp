// Scale-out directed tests: the data structures behind the 256-1024-core
// hot path, exercised past the boundaries where the 16-core paper shape
// never goes.
//
//  * directory sharer bitvectors and arena slices beyond the 64-core word
//    boundary (invalidate fan-out, remap after bank gating, upgrade races);
//  * RingBuffer FIFO semantics across growth and wraparound;
//  * arbitrate_sparse() lockstep-equivalent to the dense recursive walk,
//    powered and gated, over randomized candidate sets;
//  * 256- and 1024-core heavy-sharing scheduler differentials (dense ==
//    event), on the canonical metrics serialisation and on every per-core
//    counter, so barrier releases and invalidation fan-out that cross
//    64-core bitset words are pinned core by core;
//  * SweepRunner determinism (threads=1 == threads=N) via the canonical
//    metrics serialisation, so every modeled byte is compared.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "coherence/directory.hpp"
#include "common/ring_buffer.hpp"
#include "core/arbitration_tree.hpp"
#include "core/power_state.hpp"
#include "same_result.hpp"
#include "sim/scenario.hpp"

namespace mot3d {
namespace {

using coherence::CoherenceConfig;
using coherence::CoherenceDirectory;
using coherence::DirOutcome;

// ---- directory beyond the 64-core sharer word ------------------------------

constexpr std::size_t kWideCores = 256;
constexpr std::size_t kWideBanks = 512;

CoherenceConfig wide_dir_cfg() {
  CoherenceConfig cc;
  cc.total_cores = kWideCores;
  cc.total_banks = kWideBanks;
  cc.line_bytes = 32;
  return cc;
}

MemRequest wide_req(CoreId core, Addr line, ReqKind kind) {
  return MemRequest{.id = 0,
                    .core = core,
                    .bank = static_cast<BankId>((line >> 5) & (kWideBanks - 1)),
                    .addr = line,
                    .is_write = kind == ReqKind::kWriteback,
                    .issue_cycle = 0,
                    .kind = kind};
}

BankId wide_bank(Addr line) {
  return static_cast<BankId>((line >> 5) & (kWideBanks - 1));
}

/// Build a Shared sharer set of exactly `sharers` (ascending) on `line`.
/// The first GetS creates E{s0}; the second invalidates s0 and shares; s0
/// then re-joins, so every listed core ends up a sharer.
void build_sharers(CoherenceDirectory& dir, Addr line,
                   const std::vector<CoreId>& sharers) {
  ASSERT_GE(sharers.size(), 2u);
  (void)dir.on_request(wide_req(sharers[0], line, ReqKind::kGetS), wide_bank(line));
  (void)dir.on_request(wide_req(sharers[1], line, ReqKind::kGetS), wide_bank(line));
  (void)dir.on_request(wide_req(sharers[0], line, ReqKind::kGetS), wide_bank(line));
  for (std::size_t i = 2; i < sharers.size(); ++i) {
    (void)dir.on_request(wide_req(sharers[i], line, ReqKind::kGetS),
                         wide_bank(line));
  }
}

TEST(ScaleOutDirectory, InvalidateFanOutCrossesSharerWordBoundaries) {
  CoherenceDirectory dir(wide_dir_cfg());
  // One sharer in each of the four 64-bit words of a 256-core bitvector,
  // plus both sides of every word boundary.
  const std::vector<CoreId> sharers = {0, 63, 64, 65, 127, 128, 191, 192, 255};
  const Addr line = 0x10000;
  build_sharers(dir, line, sharers);
  // A writer outside the set must invalidate every sharer, in ascending
  // core order (the fan-out order the fabric serialises).
  const DirOutcome wr = dir.on_request(wide_req(10, line, ReqKind::kGetX),
                                       wide_bank(line));
  ASSERT_EQ(wr.invalidate.size(), sharers.size());
  for (std::size_t i = 0; i < sharers.size(); ++i) {
    EXPECT_EQ(wr.invalidate[i], sharers[i]) << "fan-out position " << i;
  }
  EXPECT_FALSE(wr.install_shared);
}

TEST(ScaleOutDirectory, UpgradeRaceAcrossWordBoundaryAt256Cores) {
  CoherenceDirectory dir(wide_dir_cfg());
  // Sharers straddle three different words: {5, 70, 200}.
  const Addr line = 0x20000;
  build_sharers(dir, line, {5, 70, 200});
  // Core 70 wins the upgrade race: bare grant, the other two invalidated.
  const DirOutcome up = dir.on_request(wide_req(70, line, ReqKind::kUpgrade),
                                       wide_bank(line));
  EXPECT_TRUE(up.upgrade_ack);
  ASSERT_EQ(up.invalidate.size(), 2u);
  EXPECT_EQ(up.invalidate[0], 5u);
  EXPECT_EQ(up.invalidate[1], 200u);
  // Core 5 lost the race (no longer a sharer): its upgrade must degenerate
  // to a full GetX that invalidates the new owner — a bare grant would
  // resurrect a copy the directory already dropped.
  const DirOutcome lost = dir.on_request(wide_req(5, line, ReqKind::kUpgrade),
                                         wide_bank(line));
  EXPECT_FALSE(lost.upgrade_ack);
  ASSERT_EQ(lost.invalidate.size(), 1u);
  EXPECT_EQ(lost.invalidate[0], 70u);
}

TEST(ScaleOutDirectory, RemapAfterBankGatingKeepsWideSharerSets) {
  CoherenceDirectory dir(wide_dir_cfg());
  // Entries on several source banks, each with sharers above core 64 so a
  // migration that truncated bitvectors to one word would be caught.
  const std::vector<CoreId> sharers = {3, 66, 130, 250};
  std::vector<Addr> lines;
  for (Addr k = 0; k < 8; ++k) lines.push_back(0x40000 + k * 0x20);
  for (Addr line : lines) build_sharers(dir, line, sharers);
  const std::size_t before = dir.occupancy();
  ASSERT_EQ(before, lines.size());

  // Gate all but 16 banks: fold every logical bank onto physical 0..15.
  dir.remap([](BankId logical) { return static_cast<BankId>(logical & 15); });
  EXPECT_EQ(dir.occupancy(), before) << "migration must not lose entries";
  for (BankId b = 16; b < kWideBanks; ++b) {
    ASSERT_EQ(dir.slice_entries(b), 0u) << "entry left on gated bank " << b;
  }

  // The migrated entries must still know their full sharer sets: a writer
  // fans out to all four, including the cores beyond the first word.
  for (Addr line : lines) {
    const BankId new_bank = static_cast<BankId>(wide_bank(line) & 15);
    const DirOutcome wr =
        dir.on_request(wide_req(20, line, ReqKind::kGetX), new_bank);
    ASSERT_EQ(wr.invalidate.size(), sharers.size()) << "line " << line;
    for (std::size_t i = 0; i < sharers.size(); ++i) {
      EXPECT_EQ(wr.invalidate[i], sharers[i]);
    }
  }
}

// ---- RingBuffer ------------------------------------------------------------

TEST(ScaleOutRingBuffer, FifoOrderSurvivesWraparoundAndGrowth) {
  RingBuffer<int> rb;
  EXPECT_TRUE(rb.empty());
  // Interleave pushes and pops so head_ walks away from slot 0, then push
  // enough to force growth while the live region wraps the backing array.
  for (int i = 0; i < 6; ++i) rb.push_back(i);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(rb.front(), i);
    rb.pop_front();
  }
  for (int i = 6; i < 40; ++i) rb.push_back(i);  // wraps, then doubles twice
  EXPECT_EQ(rb.size(), 36u);
  for (std::size_t i = 0; i < rb.size(); ++i) {
    EXPECT_EQ(rb.at(i), static_cast<int>(i) + 4) << "at(" << i << ")";
  }
  for (int expect = 4; expect < 40; ++expect) {
    ASSERT_FALSE(rb.empty());
    EXPECT_EQ(rb.front(), expect);
    rb.pop_front();
  }
  EXPECT_TRUE(rb.empty());
  rb.push_back(99);
  EXPECT_EQ(rb.front(), 99);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.size(), 0u);
}

// ---- sparse arbitration ----------------------------------------------------

/// Deterministic xorshift so the candidate sets are reproducible.
std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

/// Drive two trees in lockstep — dense recursive arbitrate() vs
/// arbitrate_sparse() — over randomized candidate sets, comparing every
/// grant.  Both trees mutate round-robin pointers on the granted spine, so
/// equal winners each round imply equal internal state throughout.
void lockstep_arbitration(std::size_t total_cores, const core::PowerState* state,
                          std::uint64_t seed, int rounds) {
  core::ArbitrationTree dense(total_cores);
  core::ArbitrationTree sparse(total_cores);
  core::ArbitrationTree::SparseScratch scratch;
  if (state != nullptr) {
    dense.configure(*state);
    sparse.configure(*state);
  }
  std::vector<bool> requesting(total_cores, false);
  std::vector<CoreId> candidates;
  std::uint64_t s = seed;
  for (int round = 0; round < rounds; ++round) {
    std::fill(requesting.begin(), requesting.end(), false);
    candidates.clear();
    // ~1/8 of the active cores request each round, in scrambled order.
    for (CoreId c = 0; c < total_cores; ++c) {
      if (state != nullptr && !state->core_active(c)) continue;
      if ((xorshift(s) & 7) == 0) {
        requesting[c] = true;
        candidates.push_back(c);
      }
    }
    // Shuffle candidate order: arbitrate_sparse must not depend on it.
    for (std::size_t i = candidates.size(); i > 1; --i) {
      std::swap(candidates[i - 1], candidates[xorshift(s) % i]);
    }
    const auto want = dense.arbitrate(requesting);
    const auto got =
        sparse.arbitrate_sparse(candidates.data(), candidates.size(), scratch);
    ASSERT_EQ(want.has_value(), got.has_value()) << "round " << round;
    if (want.has_value()) {
      ASSERT_EQ(*want, *got) << "round " << round;
    }
  }
}

TEST(ScaleOutArbitration, SparseMatchesDenseAt256Cores) {
  lockstep_arbitration(256, nullptr, 0x9e3779b97f4a7c15ull, 2000);
}

TEST(ScaleOutArbitration, SparseMatchesDenseAt1024Cores) {
  lockstep_arbitration(1024, nullptr, 0xdeadbeefcafef00dull, 500);
}

TEST(ScaleOutArbitration, SparseMatchesDenseUnderCoreGating) {
  // Quarter of the cores powered: gated subtrees must block request-wire
  // propagation in the sparse path exactly as configure() gates descend().
  const core::PowerState state("PC64", 256, 64, 512, 512);
  lockstep_arbitration(256, &state, 0x123456789abcdef1ull, 2000);
}

TEST(ScaleOutArbitration, SparseEmptyAndSingleton) {
  core::ArbitrationTree tree(256);
  core::ArbitrationTree::SparseScratch scratch;
  EXPECT_FALSE(tree.arbitrate_sparse(nullptr, 0, scratch).has_value());
  const CoreId only = 200;
  const auto got = tree.arbitrate_sparse(&only, 1, scratch);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, only);
}

// ---- 256/1024-core clusters: scheduler differential + sweep determinism ----

sim::ScenarioSpec heavy_sharing_spec(std::vector<std::string> apps,
                                     const core::PowerState& state) {
  sim::ScenarioSpec spec;
  spec.name = "scale_out_test";
  spec.kind = sim::ScenarioSpec::Kind::kSweep;
  spec.apps = std::move(apps);
  spec.fabrics = {cluster::Fabric::kMot};
  spec.power_states = {state};
  spec.dram_presets = {mem::DramPreset::kDdr3_200ns};
  spec.has_golden = false;
  return spec;
}

sim::ScenarioSpec heavy_sharing_256_spec() {
  return heavy_sharing_spec({"all_to_all", "producer_consumer"},
                            core::PowerState("Full256x512", 256, 256, 512, 512));
}

sim::ScenarioOptions scale_out_options(unsigned threads,
                                       cluster::SchedulerMode scheduler) {
  sim::ScenarioOptions opt;
  opt.scale = 0.01;
  opt.seed = 42;
  opt.threads = threads;
  opt.scheduler = scheduler;
  return opt;
}

/// Runs `spec` under both schedulers and compares the canonical metrics
/// document byte for byte, then every run's full result: the document
/// leaves out the per-core stall, spin, idle, busy and finish cycles.
void expect_schedulers_agree(const sim::ScenarioSpec& spec, double scale) {
  sim::ScenarioOptions dense_opt =
      scale_out_options(1, cluster::SchedulerMode::kDenseTick);
  sim::ScenarioOptions event_opt =
      scale_out_options(1, cluster::SchedulerMode::kEventDriven);
  dense_opt.scale = event_opt.scale = scale;
  const sim::ScenarioOutcome dense = sim::run_scenario(spec, dense_opt);
  const sim::ScenarioOutcome event = sim::run_scenario(spec, event_opt);
  EXPECT_EQ(sim::scenario_metrics_json(dense), sim::scenario_metrics_json(event));
  ASSERT_EQ(dense.results.size(), spec.apps.size());
  ASSERT_EQ(event.results.size(), spec.apps.size());
  for (std::size_t i = 0; i < spec.apps.size(); ++i) {
    SCOPED_TRACE(spec.apps[i]);
    cluster::expect_same_result(dense.results[i], event.results[i]);
  }
}

TEST(ScaleOutCluster, SchedulerDifferential256CoreHeavySharing) {
  expect_schedulers_agree(heavy_sharing_256_spec(), 0.01);
}

TEST(ScaleOutCluster, SchedulerDifferential1024Core) {
  // Sixteen 64-core words per barrier and sharer set.
  expect_schedulers_agree(
      heavy_sharing_spec({"all_to_all", "read_mostly"},
                         core::PowerState("Full1024x2048", 1024, 1024, 2048,
                                          2048)),
      0.005);
}

TEST(ScaleOutCluster, SweepDeterminism256CoreThreads1VsN) {
  const sim::ScenarioSpec spec = heavy_sharing_256_spec();
  const std::string one = sim::scenario_metrics_json(sim::run_scenario(
      spec, scale_out_options(1, cluster::SchedulerMode::kEventDriven)));
  const std::string many = sim::scenario_metrics_json(sim::run_scenario(
      spec, scale_out_options(4, cluster::SchedulerMode::kEventDriven)));
  EXPECT_EQ(one, many);
}

}  // namespace
}  // namespace mot3d
