#include "src/temporal/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

namespace tdx {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    e_plus_ = *schema_.AddRelationPair("E", {"name", "company"},
                                       SchemaRole::kSource);
    e_ = *schema_.TwinOf(e_plus_);
    emp_plus_ = *schema_.AddRelationPair("Emp", {"name", "company", "salary"},
                                         SchemaRole::kTarget);
    emp_ = *schema_.TwinOf(emp_plus_);
  }

  Universe u_;
  Schema schema_;
  RelationId e_plus_ = 0, e_ = 0, emp_plus_ = 0, emp_ = 0;
};

TEST_F(SnapshotTest, FactVisibleExactlyWithinInterval) {
  // Figure 4 -> Figure 1: E+(Ada, IBM, [2012, 2014)).
  ConcreteInstance ic(&schema_);
  ASSERT_TRUE(ic.Add(e_plus_, {u_.Constant("Ada"), u_.Constant("IBM")},
                     Interval(2012, 2014))
                  .ok());
  const Fact expected(e_, {u_.Constant("Ada"), u_.Constant("IBM")});
  for (TimePoint l : {2012u, 2013u}) {
    auto snap = SnapshotAt(ic, l, &u_);
    ASSERT_TRUE(snap.ok());
    EXPECT_TRUE(snap->Contains(expected)) << l;
    EXPECT_EQ(snap->size(), 1u);
  }
  for (TimePoint l : {2011u, 2014u, 2020u}) {
    auto snap = SnapshotAt(ic, l, &u_);
    ASSERT_TRUE(snap.ok());
    EXPECT_TRUE(snap->empty()) << l;
  }
}

TEST_F(SnapshotTest, UnboundedFactVisibleForever) {
  ConcreteInstance ic(&schema_);
  ASSERT_TRUE(ic.Add(e_plus_, {u_.Constant("Ada"), u_.Constant("Intel")},
                     Interval::FromStart(2014))
                  .ok());
  auto snap = SnapshotAt(ic, 5000, &u_);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->size(), 1u);
}

TEST_F(SnapshotTest, AnnotatedNullProjectsPerSnapshot) {
  // Section 4.1: Emp(Ada, IBM, N^[8, inf), [8, inf)): db8 contains N_8,
  // db9 contains N_9, and so on — all distinct, all deterministic.
  ConcreteInstance ic(&schema_);
  const Value n = u_.FreshAnnotatedNull(Interval::FromStart(8));
  ASSERT_TRUE(ic.Add(emp_plus_, {u_.Constant("Ada"), u_.Constant("IBM"), n},
                     Interval::FromStart(8))
                  .ok());
  auto db8 = SnapshotAt(ic, 8, &u_);
  auto db9 = SnapshotAt(ic, 9, &u_);
  auto db8_again = SnapshotAt(ic, 8, &u_);
  ASSERT_TRUE(db8.ok());
  ASSERT_TRUE(db9.ok());
  ASSERT_TRUE(db8_again.ok());
  ASSERT_EQ(db8->facts(emp_).size(), 1u);
  ASSERT_EQ(db9->facts(emp_).size(), 1u);
  const Value n8 = db8->facts(emp_)[0].arg(2);
  const Value n9 = db9->facts(emp_)[0].arg(2);
  EXPECT_TRUE(n8.is_null());
  EXPECT_TRUE(n9.is_null());
  EXPECT_NE(n8, n9);
  EXPECT_EQ(*db8, *db8_again);  // [[.]] is a function
}

TEST_F(SnapshotTest, MultipleRelationsAndFacts) {
  ConcreteInstance ic(&schema_);
  ASSERT_TRUE(ic.Add(e_plus_, {u_.Constant("Ada"), u_.Constant("IBM")},
                     Interval(2012, 2014))
                  .ok());
  ASSERT_TRUE(ic.Add(e_plus_, {u_.Constant("Bob"), u_.Constant("IBM")},
                     Interval(2013, 2018))
                  .ok());
  ASSERT_TRUE(ic.Add(emp_plus_,
                     {u_.Constant("Ada"), u_.Constant("IBM"),
                      u_.Constant("18k")},
                     Interval(2013, 2014))
                  .ok());
  auto snap = SnapshotAt(ic, 2013, &u_);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->facts(e_).size(), 2u);
  EXPECT_EQ(snap->facts(emp_).size(), 1u);
}

TEST_F(SnapshotTest, FailsWithoutTwin) {
  Schema bare;
  const RelationId r =
      *bare.AddTemporalRelation("R+", {"a"}, SchemaRole::kSource);
  ConcreteInstance ic(&bare);
  ASSERT_TRUE(ic.Add(r, {u_.Constant("x")}, Interval(0, 2)).ok());
  EXPECT_FALSE(SnapshotAt(ic, 0, &u_).ok());
}

// The split's pieces against the single-point oracle: on random complete
// instances (duplicate data over overlapping intervals included, so that
// insertion deduplicates), every point of every piece must see SnapshotAt
// of the piece's first point, fact for fact and in order.
TEST_F(SnapshotTest, SplitPiecesMatchSnapshotAt) {
  std::mt19937_64 rng(20161);
  const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  for (int round = 0; round < 60; ++round) {
    ConcreteInstance ic(&schema_);
    const std::size_t facts = pick(40);
    for (std::size_t i = 0; i < facts; ++i) {
      const TimePoint start = pick(30);
      const Interval iv = pick(6) == 0
                              ? Interval::FromStart(start)
                              : Interval(start, start + 1 + pick(12));
      const Value a = u_.Constant("p" + std::to_string(pick(4)));
      const Value b = u_.Constant("c" + std::to_string(pick(3)));
      const Status added =
          pick(2) == 0 ? ic.Add(e_plus_, {a, b}, iv)
                       : ic.Add(emp_plus_, {a, b, u_.Constant("s")}, iv);
      ASSERT_TRUE(added.ok()) << added;
    }
    std::vector<TimePoint> points;
    const std::size_t count = 1 + pick(20);
    for (std::size_t i = 0; i < count; ++i) points.push_back(pick(45));

    const SnapshotPieces pieces = SplitSnapshots(ic, points);
    ASSERT_TRUE(std::is_sorted(pieces.points.begin(), pieces.points.end()));
    ASSERT_EQ(pieces.rows.size(), pieces.firsts.size());
    for (const TimePoint l : points) {
      const std::size_t k = pieces.PieceOf(l);
      ASSERT_LT(k, pieces.firsts.size());
      auto piece = MaterializePiece(ic, pieces, k);
      auto oracle = SnapshotAt(ic, l, &u_);
      ASSERT_TRUE(piece.ok()) << piece.status();
      ASSERT_TRUE(oracle.ok()) << oracle.status();
      std::vector<Fact> got, want;
      piece->ForEach([&](FactView f) { got.push_back(f.ToFact()); });
      oracle->ForEach([&](FactView f) { want.push_back(f.ToFact()); });
      EXPECT_EQ(got, want) << "round " << round << ", point " << l
                           << ", piece " << k;
    }
    // A piece starts at its first point, and pieces do not repeat.
    for (std::size_t k = 0; k < pieces.firsts.size(); ++k) {
      EXPECT_EQ(pieces.PieceOf(pieces.firsts[k]), k);
    }
  }
}

TEST_F(SnapshotTest, PieceWithoutTwinFailsLikeSnapshotAt) {
  Schema bare;
  const RelationId r =
      *bare.AddTemporalRelation("R+", {"a"}, SchemaRole::kSource);
  ConcreteInstance ic(&bare);
  ASSERT_TRUE(ic.Add(r, {u_.Constant("x")}, Interval(0, 2)).ok());
  const SnapshotPieces pieces = SplitSnapshots(ic, {0, 5});
  ASSERT_EQ(pieces.firsts, (std::vector<TimePoint>{0, 5}));
  const auto covered = MaterializePiece(ic, pieces, 0);
  ASSERT_FALSE(covered.ok());
  EXPECT_EQ(covered.status(), SnapshotAt(ic, 0, &u_).status());
  const auto empty = MaterializePiece(ic, pieces, 1);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

}  // namespace
}  // namespace tdx
