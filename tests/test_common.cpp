// Unit tests for the common substrate: deterministic RNG, statistics,
// table rendering, and the shared integer helpers.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <vector>

#include "common/index_set.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

namespace mot3d {
namespace {

TEST(Types, Log2Exact) {
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(2), 1u);
  EXPECT_EQ(log2_exact(32), 5u);
  EXPECT_EQ(log2_exact(1ull << 40), 40u);
}

TEST(Types, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(48));
}

TEST(Types, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
}

TEST(Types, IsWrite) {
  EXPECT_TRUE(is_write(MemOp::kStore));
  EXPECT_FALSE(is_write(MemOp::kLoad));
  EXPECT_FALSE(is_write(MemOp::kInstrFetch));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(1234), b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64()) ? 1 : 0;
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
  EXPECT_EQ(r.next_below(0), 0u);
  EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(99);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(5);
  EXPECT_FALSE(r.next_bool(0.0));
  EXPECT_TRUE(r.next_bool(1.0));
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng r(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, GeometricMeanApprox) {
  Rng r(3);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.next_geometric(0.25, 1000);
  // failures before success with p=0.25: mean = (1-p)/p = 3.
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, GeometricRespectsCap) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LE(r.next_geometric(0.01, 5), 5u);
}

TEST(RunningStat, Basics) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.add(2.0);
  s.add(4.0);
  s.add(6.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(10, 4);  // [0,10) [10,20) [20,30) [30,40) + overflow
  h.add(0);
  h.add(9);
  h.add(10);
  h.add(35);
  h.add(1000);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.max(), 1000u);
}

TEST(Histogram, MeanAndQuantile) {
  Histogram h(1, 128);
  for (std::uint64_t v = 1; v <= 100; ++v) h.add(v);
  EXPECT_NEAR(h.mean(), 50.5, 1e-9);
  EXPECT_NEAR(static_cast<double>(h.quantile(0.5)), 50.0, 1.0);
  EXPECT_NEAR(static_cast<double>(h.quantile(0.99)), 99.0, 1.0);
  EXPECT_EQ(h.quantile(0.0), 1u);
  EXPECT_EQ(h.quantile(1.0), 100u);
}

TEST(TextTable, RendersAlignedRows) {
  TextTable t("demo");
  t.set_header({"a", "bbbb"});
  t.add_row({"x", "y"});
  t.add_row({"longer", "z"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TextTable, FormatHelpers) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_percent(0.1234, 1), "12.3%");
}

std::vector<std::size_t> members(IndexSet& s) {
  std::vector<std::size_t> seen;
  s.for_each([&](std::size_t i) { seen.push_back(i); });
  return seen;
}

TEST(IndexSet, WalksAscendingAcrossWordsAndToTheLastBit) {
  IndexSet s(130);
  for (std::size_t i : {129, 64, 0, 127, 63, 65, 128}) s.insert(i);
  const std::vector<std::size_t> want{0, 63, 64, 65, 127, 128, 129};
  EXPECT_EQ(members(s), want);
  // The const cursor visits the same members and runs off the end cleanly.
  std::vector<std::size_t> cursor;
  for (std::size_t i = s.next(0); i != IndexSet::npos; i = s.next(i + 1)) {
    cursor.push_back(i);
  }
  EXPECT_EQ(cursor, want);
  EXPECT_EQ(s.next(64), 64u);
  EXPECT_EQ(s.next(66), 127u);
  EXPECT_EQ(s.next(130), IndexSet::npos);

  // Bit 63 of the last word is the last bit of a 128-entry set.
  IndexSet full_words(128);
  full_words.insert(127);
  full_words.insert(63);
  EXPECT_EQ(members(full_words), (std::vector<std::size_t>{63, 127}));
  EXPECT_EQ(full_words.next(128), IndexSet::npos);
}

TEST(IndexSet, WalkMayEraseTheVisitedMember) {
  IndexSet s(200);
  for (std::size_t i : {3, 62, 63, 64, 150}) s.insert(i);
  std::vector<std::size_t> seen;
  s.for_each([&](std::size_t i) {
    seen.push_back(i);
    s.erase(i);
  });
  EXPECT_EQ(seen, (std::vector<std::size_t>{3, 62, 63, 64, 150}));
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(members(s).empty());
}

TEST(IndexSet, InsertAboveTheCursorJoinsTheWalkBelowWaits) {
  IndexSet s(200);
  s.insert(10);
  s.insert(100);
  std::vector<std::size_t> seen;
  s.for_each([&](std::size_t i) {
    seen.push_back(i);
    if (i == 10) {
      s.insert(11);  // above, same word: this walk
      s.insert(70);  // above, next word: this walk
    }
    if (i == 100) s.insert(5);  // below: the next walk
  });
  EXPECT_EQ(seen, (std::vector<std::size_t>{10, 11, 70, 100}));
  EXPECT_EQ(members(s), (std::vector<std::size_t>{5, 10, 11, 70, 100}));
}

TEST(IndexSet, CountTracksMembershipNotCalls) {
  IndexSet s(100);
  EXPECT_TRUE(s.empty());
  s.insert(7);
  s.insert(7);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_FALSE(s.empty());
  s.erase(8);
  s.erase(99);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains(7));
  s.assign(70, true);
  s.assign(71, false);
  EXPECT_EQ(s.size(), 2u);
  s.clear();
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(7));
  EXPECT_FALSE(s.contains(70));
  EXPECT_EQ(s.next(0), IndexSet::npos);
  s.insert(7);
  EXPECT_EQ(s.size(), 1u);
}

}  // namespace
}  // namespace mot3d
