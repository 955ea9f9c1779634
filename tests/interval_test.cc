#include "src/common/interval.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/temporal/coalesce.h"

namespace tdx {
namespace {

TEST(IntervalTest, BasicAccessors) {
  const Interval iv(3, 7);
  EXPECT_EQ(iv.start(), 3u);
  EXPECT_EQ(iv.end(), 7u);
  EXPECT_FALSE(iv.unbounded());
  ASSERT_TRUE(iv.length().has_value());
  EXPECT_EQ(*iv.length(), 4u);
}

TEST(IntervalTest, UnboundedInterval) {
  const Interval iv = Interval::FromStart(5);
  EXPECT_TRUE(iv.unbounded());
  EXPECT_EQ(iv.end(), kTimeInfinity);
  EXPECT_FALSE(iv.length().has_value());
  EXPECT_TRUE(iv.Contains(5));
  EXPECT_TRUE(iv.Contains(1000000));
  EXPECT_FALSE(iv.Contains(4));
}

TEST(IntervalTest, ContainsTimePoint) {
  const Interval iv(3, 7);
  EXPECT_FALSE(iv.Contains(2));
  EXPECT_TRUE(iv.Contains(3));
  EXPECT_TRUE(iv.Contains(6));
  EXPECT_FALSE(iv.Contains(7));  // half-open
}

TEST(IntervalTest, ContainsInterval) {
  const Interval outer(3, 10);
  EXPECT_TRUE(outer.Contains(Interval(3, 10)));
  EXPECT_TRUE(outer.Contains(Interval(4, 9)));
  EXPECT_FALSE(outer.Contains(Interval(2, 9)));
  EXPECT_FALSE(outer.Contains(Interval(4, 11)));
  EXPECT_TRUE(Interval::FromStart(0).Contains(Interval::FromStart(5)));
}

TEST(IntervalTest, Overlaps) {
  EXPECT_TRUE(Interval(1, 5).Overlaps(Interval(4, 8)));
  EXPECT_TRUE(Interval(4, 8).Overlaps(Interval(1, 5)));
  EXPECT_FALSE(Interval(1, 5).Overlaps(Interval(5, 8)));  // adjacent
  EXPECT_FALSE(Interval(1, 5).Overlaps(Interval(6, 8)));
  EXPECT_TRUE(Interval(1, 5).Overlaps(Interval(1, 5)));
  EXPECT_TRUE(Interval::FromStart(3).Overlaps(Interval(0, 4)));
}

TEST(IntervalTest, AdjacencyMatchesPaperDefinition) {
  // Section 2: [s,e), [s',e') adjacent iff s' = e or s = e'.
  EXPECT_TRUE(Interval(1, 5).AdjacentTo(Interval(5, 8)));
  EXPECT_TRUE(Interval(5, 8).AdjacentTo(Interval(1, 5)));
  EXPECT_FALSE(Interval(1, 5).AdjacentTo(Interval(6, 8)));
  EXPECT_FALSE(Interval(1, 5).AdjacentTo(Interval(4, 8)));  // overlap
}

TEST(IntervalTest, Intersect) {
  const auto i1 = Interval(1, 5).Intersect(Interval(3, 8));
  ASSERT_TRUE(i1.has_value());
  EXPECT_EQ(*i1, Interval(3, 5));
  EXPECT_FALSE(Interval(1, 5).Intersect(Interval(5, 8)).has_value());
  const auto i2 = Interval::FromStart(3).Intersect(Interval(0, 10));
  ASSERT_TRUE(i2.has_value());
  EXPECT_EQ(*i2, Interval(3, 10));
  const auto i3 = Interval::FromStart(3).Intersect(Interval::FromStart(7));
  ASSERT_TRUE(i3.has_value());
  EXPECT_EQ(*i3, Interval::FromStart(7));
}

TEST(IntervalTest, MergeWith) {
  EXPECT_EQ(Interval(1, 5).MergeWith(Interval(5, 8)), Interval(1, 8));
  EXPECT_EQ(Interval(1, 5).MergeWith(Interval(3, 8)), Interval(1, 8));
  EXPECT_EQ(Interval(1, 5).MergeWith(Interval::FromStart(4)),
            Interval::FromStart(1));
}

TEST(IntervalTest, MergeIntervalsNormalizes) {
  EXPECT_EQ(MergeIntervals({Interval(5, 8), Interval(1, 3), Interval(3, 5),
                            Interval(10, 12)}),
            (std::vector<Interval>{Interval(1, 8), Interval(10, 12)}));
  EXPECT_TRUE(MergeIntervals({}).empty());
}

// MergeIntervals as an independent oracle for coalescing: the coalesced runs
// of one data tuple are exactly the merged runs of its fact intervals.
TEST(IntervalTest, MergeIntervalsAgreesWithCoalesce) {
  Universe u;
  Schema schema;
  const RelationId e_plus =
      *schema.AddRelationPair("E", {"name"}, SchemaRole::kSource);
  ConcreteInstance ic(&schema);
  const std::vector<Interval> ivs = {Interval(1, 4), Interval(4, 6),
                                     Interval(9, 12), Interval(11, 15)};
  for (const Interval& iv : ivs) {
    ASSERT_TRUE(ic.Add(e_plus, {u.Constant("x")}, iv).ok());
  }
  const ConcreteInstance coalesced = Coalesce(ic);
  std::vector<Interval> coalesced_ivs;
  coalesced.facts().ForEach(
      [&](FactView f) { coalesced_ivs.push_back(f.interval()); });
  std::sort(coalesced_ivs.begin(), coalesced_ivs.end());
  EXPECT_EQ(MergeIntervals(ivs), coalesced_ivs);
}

/// Decodes a bitmask over points 0..7 into merged runs of unit intervals.
std::vector<Interval> RunsFromMask(int mask) {
  std::vector<Interval> ivs;
  for (int bit = 0; bit < 8; ++bit) {
    if (mask & (1 << bit)) {
      ivs.emplace_back(static_cast<TimePoint>(bit),
                       static_cast<TimePoint>(bit + 1));
    }
  }
  return MergeIntervals(std::move(ivs));
}

bool MaskBit(int mask, int bit) { return (mask >> bit) & 1; }

bool Covers(const std::vector<Interval>& runs, TimePoint p) {
  return std::any_of(runs.begin(), runs.end(),
                     [p](const Interval& iv) { return iv.Contains(p); });
}

void ExpectMaximalRuns(const std::vector<Interval>& runs) {
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_LT(runs[i - 1].end(), runs[i].start()) << i;
  }
  EXPECT_EQ(MergeIntervals(runs), runs);
}

// Property sweep: a timeline is the merged runs of its intervals. On dense
// small universes, merging two timelines' runs together is their pointwise
// union, and every result of MergeIntervals is sorted, pairwise disjoint,
// non-adjacent and a fixed point of MergeIntervals.
using TimelineLaws = ::testing::TestWithParam<int>;

TEST_P(TimelineLaws, PointwiseSemantics) {
  const int combined = GetParam();
  const int mask_a = combined & 0xFF;
  const int mask_b = (combined >> 8) & 0xFF;
  const std::vector<Interval> a = RunsFromMask(mask_a);
  const std::vector<Interval> b = RunsFromMask(mask_b);
  std::vector<Interval> both = a;
  both.insert(both.end(), b.begin(), b.end());
  const std::vector<Interval> u = MergeIntervals(std::move(both));
  ExpectMaximalRuns(a);
  ExpectMaximalRuns(b);
  ExpectMaximalRuns(u);
  for (int p = 0; p < 10; ++p) {
    const bool in_a = p < 8 && MaskBit(mask_a, p);
    const bool in_b = p < 8 && MaskBit(mask_b, p);
    EXPECT_EQ(Covers(a, p), in_a) << p;
    EXPECT_EQ(Covers(u, p), in_a || in_b) << p;
  }
}

INSTANTIATE_TEST_SUITE_P(MaskPairs, TimelineLaws,
                         ::testing::Range(0, 1 << 16, 1309));

TEST(IntervalTest, ToString) {
  EXPECT_EQ(Interval(2012, 2014).ToString(), "[2012, 2014)");
  EXPECT_EQ(Interval::FromStart(2014).ToString(), "[2014, inf)");
}

TEST(IntervalTest, Ordering) {
  EXPECT_LT(Interval(1, 5), Interval(2, 3));
  EXPECT_LT(Interval(1, 3), Interval(1, 5));
  EXPECT_LT(Interval(1, 5), Interval::FromStart(1));
}

TEST(IntervalTest, HashEqualIntervalsAgree) {
  IntervalHash hash;
  EXPECT_EQ(hash(Interval(1, 5)), hash(Interval(1, 5)));
  EXPECT_NE(hash(Interval(1, 5)), hash(Interval(1, 6)));  // overwhelmingly
}

TEST(FragmentIntervalTest, NoInteriorCutsIsIdentity) {
  const auto fragments = FragmentInterval(Interval(3, 8), {1, 3, 8, 10});
  ASSERT_EQ(fragments.size(), 1u);
  EXPECT_EQ(fragments[0], Interval(3, 8));
}

TEST(FragmentIntervalTest, InteriorCutsSplit) {
  const auto fragments = FragmentInterval(Interval(3, 10), {5, 7});
  ASSERT_EQ(fragments.size(), 3u);
  EXPECT_EQ(fragments[0], Interval(3, 5));
  EXPECT_EQ(fragments[1], Interval(5, 7));
  EXPECT_EQ(fragments[2], Interval(7, 10));
}

TEST(FragmentIntervalTest, UnboundedIntervalKeepsUnboundedTail) {
  const auto fragments = FragmentInterval(Interval::FromStart(3), {5, 9});
  ASSERT_EQ(fragments.size(), 3u);
  EXPECT_EQ(fragments[2], Interval::FromStart(9));
}

TEST(FragmentIntervalTest, FragmentsCoverOriginal) {
  const Interval iv(0, 20);
  const auto fragments = FragmentInterval(iv, {1, 4, 9, 13, 19});
  TimePoint cursor = iv.start();
  for (const Interval& f : fragments) {
    EXPECT_EQ(f.start(), cursor);
    cursor = f.end();
  }
  EXPECT_EQ(cursor, iv.end());
}

TEST(DistinctFiniteEndpointsTest, SortsAndDedupes) {
  const auto pts = DistinctFiniteEndpoints(
      {Interval(5, 11), Interval(8, 15), Interval::FromStart(8)});
  EXPECT_EQ(pts, (std::vector<TimePoint>{5, 8, 11, 15}));
}

TEST(DistinctFiniteEndpointsTest, OmitsInfinity) {
  const auto pts = DistinctFiniteEndpoints({Interval::FromStart(3)});
  EXPECT_EQ(pts, (std::vector<TimePoint>{3}));
}

// Property sweep: fragmentation at arbitrary cut sets always yields
// contiguous, non-empty fragments covering the original interval.
class FragmentSweep : public ::testing::TestWithParam<int> {};

TEST_P(FragmentSweep, CoversAndContiguous) {
  const int mask = GetParam();
  std::vector<TimePoint> cuts;
  for (int bit = 0; bit < 10; ++bit) {
    if (mask & (1 << bit)) cuts.push_back(static_cast<TimePoint>(bit + 1));
  }
  const Interval iv(2, 9);
  const auto fragments = FragmentInterval(iv, cuts);
  ASSERT_FALSE(fragments.empty());
  EXPECT_EQ(fragments.front().start(), iv.start());
  EXPECT_EQ(fragments.back().end(), iv.end());
  for (std::size_t i = 1; i < fragments.size(); ++i) {
    EXPECT_EQ(fragments[i].start(), fragments[i - 1].end());
  }
}

INSTANTIATE_TEST_SUITE_P(AllCutMasks, FragmentSweep,
                         ::testing::Range(0, 1 << 10, 37));

// Make() is the checked factory for untrusted boundaries (parser,
// deserialization); the asserting constructor stays for internal callers
// that already hold the invariant.

TEST(IntervalMakeTest, ValidIntervalSucceeds) {
  auto iv = Interval::Make(3, 7);
  ASSERT_TRUE(iv.ok());
  EXPECT_EQ(iv->start(), 3u);
  EXPECT_EQ(iv->end(), 7u);
}

TEST(IntervalMakeTest, UnboundedIntervalSucceeds) {
  auto iv = Interval::Make(0, kTimeInfinity);
  ASSERT_TRUE(iv.ok());
  EXPECT_TRUE(iv->unbounded());
}

TEST(IntervalMakeTest, EmptyIntervalIsRejected) {
  auto iv = Interval::Make(5, 5);
  ASSERT_FALSE(iv.ok());
  EXPECT_EQ(iv.status().code(), StatusCode::kInvalidArgument);
}

TEST(IntervalMakeTest, ReversedIntervalIsRejected) {
  auto iv = Interval::Make(9, 2);
  ASSERT_FALSE(iv.ok());
  EXPECT_EQ(iv.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tdx
