// Tests of the benchmark's measurement primitives (ledger.h).
#include "perfbench/ledger.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<uint64_t> v;
  for (uint64_t i = 1; i <= 100; i++) {
    v.push_back(i);
  }
  EXPECT_EQ(PercentileSorted(v, 50.0), 50u);
  EXPECT_EQ(PercentileSorted(v, 99.0), 99u);
  EXPECT_EQ(PercentileSorted(v, 99.5), 100u);
  EXPECT_EQ(PercentileSorted(v, 100.0), 100u);
  EXPECT_EQ(PercentileSorted(v, 0.0), 1u);
  EXPECT_EQ(PercentileSorted({7}, 99.0), 7u);
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(0), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(99), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(100000), 99.99);
  EXPECT_EQ(HighestSupportedPercentile(1000000), 99.999);
  EXPECT_EQ(HighestSupportedPercentile(50000000), 99.999);
}

TEST(Percentile, SummarizeUnsortedInput) {
  std::vector<uint64_t> v;
  for (uint64_t i = 0; i < 1000; i++) {
    v.push_back((i * 7919) % 1000 + 1);  // a permutation of 1..1000
  }
  const LatencySummary s = Summarize(v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500u);
  EXPECT_EQ(s.p99, 990u);
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_EQ(s.tail, 990u);
  EXPECT_EQ(Summarize({}).n, 0u);
}

Span MakeSpan(uint64_t start, uint64_t end) {
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SliceRatios, CancelTheCoreSpeed) {
  // 4000 batches; in the second half the core is 1.5x slower, which slows
  // Execute (100 -> 150 ns) and the reference (400 -> 600 ns) alike.
  std::vector<uint64_t> exec;
  std::vector<uint64_t> ref;
  std::vector<uint64_t> at;
  for (uint64_t i = 0; i < 4000; i++) {
    const bool slow = i >= 2000;
    exec.push_back(slow ? 150 : 100);
    if (i % 8 == 0) {
      ref.push_back(slow ? 600 : 400);
      at.push_back(i + 1);
    }
  }
  SliceRatios r;
  ASSERT_EQ(AddSliceRatios(exec, ref, at, 1000, &r), 4u);
  for (size_t i = 0; i < 4; i++) {
    EXPECT_DOUBLE_EQ(r.speedup[i], 4.0);
    EXPECT_DOUBLE_EQ(r.p50_x[i], 0.25);
    EXPECT_DOUBLE_EQ(r.p99_x[i], 0.25);
  }
}

TEST(SliceRatios, EqualCountSlicesOwnTheReferencesRunAfterTheirBatches) {
  // 2500 batches make 2 slices of 1250. References run after batches 0,
  // 1249 (slice 0) and 1250 (slice 1).
  const std::vector<uint64_t> exec(2500, 10);
  const std::vector<uint64_t> ref = {20, 40, 80};
  const std::vector<uint64_t> at = {1, 1250, 1251};
  SliceRatios r;
  ASSERT_EQ(AddSliceRatios(exec, ref, at, 1000, &r), 2u);
  EXPECT_DOUBLE_EQ(r.speedup[0], 3.0);  // mean(20, 40) / 10
  EXPECT_DOUBLE_EQ(r.speedup[1], 8.0);
  EXPECT_DOUBLE_EQ(r.p50_x[1], 0.125);
  // Fewer batches than one slice: no slice at all.
  SliceRatios none;
  EXPECT_EQ(AddSliceRatios(std::vector<uint64_t>(999, 10), ref, at, 1000,
                           &none),
            0u);
  EXPECT_TRUE(none.speedup.empty());
}

TEST(SelfTime, SubtractsUnionOfChildren) {
  const Span parent = MakeSpan(0, 100);
  EXPECT_EQ(SelfTimeNs(parent, {}), 100);
  // Overlapping children count once: [10,40) + [50,60) = 40 ns covered.
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(20, 40), MakeSpan(10, 30),
                                MakeSpan(50, 60)}),
            60);
  // Nested and touching children.
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(10, 50), MakeSpan(20, 30),
                                MakeSpan(50, 70)}),
            40);
  // Zero-length children cover nothing.
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(30, 30)}), 100);
}

TEST(SelfTime, ReplayedChildrenOutsideTheParentStillCount) {
  // Ledger children run after the Service call they account for.
  const Span parent = MakeSpan(0, 100);
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(200, 230), MakeSpan(240, 300)}), 10);
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(200, 350)}), -50);
}

TEST(Zipf, RankFrequenciesMatchTheLaw) {
  constexpr size_t kItems = 1000;
  constexpr size_t kDraws = 2000000;
  const ScrambledZipf z(kItems, 0.99, 42);
  std::vector<uint64_t> by_rank(kItems, 0);
  std::vector<uint64_t> by_item(kItems, 0);
  wh::Rng rng(7);
  for (size_t i = 0; i < kDraws; i++) {
    by_rank[z.NextRank(rng)]++;
  }
  wh::Rng rng2(8);
  for (size_t i = 0; i < kDraws; i++) {
    by_item[z.Next(rng2)]++;
  }
  double total_p = 0;
  for (size_t r = 0; r < kItems; r++) {
    total_p += z.RankProbability(r);
  }
  EXPECT_NEAR(total_p, 1.0, 1e-9);
  // The top ranks and a few deep ones, within 5 standard deviations.
  for (size_t r : {0, 1, 2, 3, 4, 5, 9, 19, 99, 499, 999}) {
    const double p = z.RankProbability(static_cast<size_t>(r));
    const double sd = std::sqrt(kDraws * p * (1 - p));
    EXPECT_NEAR(by_rank[r], kDraws * p, 5 * sd) << "rank " << r;
    EXPECT_NEAR(by_item[z.ItemOfRank(r)], kDraws * p, 5 * sd) << "rank " << r;
  }
  // theta 0.99: rank 0 is drawn about twice as often as rank 1.
  EXPECT_NEAR(static_cast<double>(by_rank[0]) / by_rank[1],
              std::pow(2.0, 0.99), 0.05);
}

TEST(Zipf, ScrambleIsASeededPermutation) {
  const ScrambledZipf a(5000, 0.99, 1);
  const ScrambledZipf b(5000, 0.99, 1);
  const ScrambledZipf c(5000, 0.99, 2);
  std::set<size_t> items;
  bool differs = false;
  for (size_t r = 0; r < 5000; r++) {
    items.insert(a.ItemOfRank(r));
    EXPECT_EQ(a.ItemOfRank(r), b.ItemOfRank(r));
    differs = differs || a.ItemOfRank(r) != c.ItemOfRank(r);
  }
  EXPECT_EQ(items.size(), 5000u);
  EXPECT_TRUE(differs);
  // The hottest item is not simply the first key.
  EXPECT_NE(a.ItemOfRank(0), 0u);
}

TEST(Fingerprint, BindsValueToKey) {
  const std::string v = Fingerprint("http://example.com/a");
  EXPECT_EQ(v.size(), 8u);
  EXPECT_TRUE(HasFingerprint("http://example.com/a", v));
  EXPECT_FALSE(HasFingerprint("http://example.com/b", v));
  EXPECT_FALSE(HasFingerprint("http://example.com/a", v.substr(1)));
  EXPECT_FALSE(HasFingerprint("http://example.com/a", ""));
}

}  // namespace
}  // namespace perfbench
