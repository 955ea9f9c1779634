#include "src/temporal/abstract_hom.h"

#include <gtest/gtest.h>

#include <string>

#include "tests/test_util.h"

namespace tdx {
namespace {

class AbstractHomTest : public ::testing::Test {
 protected:
  void SetUp() override {
    emp_plus_ = *schema_.AddRelationPair("Emp", {"name", "company", "salary"},
                                         SchemaRole::kTarget);
    emp_ = *schema_.TwinOf(emp_plus_);
  }

  /// Builds an abstract instance with one piece over [0, horizon) holding
  /// the given snapshot and an empty unbounded tail.
  AbstractInstance OnePiece(TimePoint horizon, Instance snapshot) {
    AbstractInstance ia(&schema_);
    ia.AddPiece(Interval(0, horizon), std::move(snapshot));
    ia.AddPiece(Interval::FromStart(horizon), Instance(&schema_));
    EXPECT_TRUE(ia.ValidateCover().ok());
    return ia;
  }

  Universe u_;
  Schema schema_;
  RelationId emp_plus_ = 0, emp_ = 0;
};

// Example 2 / Figure 2. J1 repeats ONE labeled null N in snapshots 0 and 1;
// J2 has a different unknown per snapshot (an annotated null). There is a
// homomorphism J2 -> J1 but none J1 -> J2.
TEST_F(AbstractHomTest, PaperExample2) {
  Instance j1_snapshot(&schema_);
  j1_snapshot.Insert(
      emp_, {u_.Constant("Ada"), u_.Constant("IBM"), u_.FreshNull("N")});
  const AbstractInstance j1 = OnePiece(2, std::move(j1_snapshot));

  Instance j2_snapshot(&schema_);
  j2_snapshot.Insert(emp_, {u_.Constant("Ada"), u_.Constant("IBM"),
                            u_.FreshAnnotatedNull("M", Interval(0, 2))});
  const AbstractInstance j2 = OnePiece(2, std::move(j2_snapshot));

  EXPECT_TRUE(AbstractHomomorphismExists(j2, j1));
  EXPECT_FALSE(AbstractHomomorphismExists(j1, j2));
  EXPECT_FALSE(AreAbstractEquivalent(j1, j2));
}

TEST_F(AbstractHomTest, IdentityAndEquivalenceOnSelf) {
  Instance snapshot(&schema_);
  snapshot.Insert(emp_, {u_.Constant("Ada"), u_.Constant("IBM"),
                         u_.FreshAnnotatedNull(Interval(0, 3))});
  const AbstractInstance ja = OnePiece(3, std::move(snapshot));
  EXPECT_TRUE(AreAbstractEquivalent(ja, ja));
}

TEST_F(AbstractHomTest, AnnotatedNullMapsToConstant) {
  Instance from_snapshot(&schema_);
  from_snapshot.Insert(emp_, {u_.Constant("Ada"), u_.Constant("IBM"),
                              u_.FreshAnnotatedNull(Interval(0, 2))});
  const AbstractInstance from = OnePiece(2, std::move(from_snapshot));

  Instance to_snapshot(&schema_);
  to_snapshot.Insert(
      emp_, {u_.Constant("Ada"), u_.Constant("IBM"), u_.Constant("18k")});
  const AbstractInstance to = OnePiece(2, std::move(to_snapshot));

  EXPECT_TRUE(AbstractHomomorphismExists(from, to));
  // Constants cannot map back onto an unknown.
  EXPECT_FALSE(AbstractHomomorphismExists(to, from));
}

TEST_F(AbstractHomTest, LabeledNullSpanningSnapshotsCannotMapToConstantMix) {
  // N holds at snapshots 0..3, but the codomain changes its constant at 2:
  // no single image works for N.
  Instance from_snapshot(&schema_);
  const Value n = u_.FreshNull();
  from_snapshot.Insert(emp_, {u_.Constant("Ada"), u_.Constant("IBM"), n});
  const AbstractInstance from = OnePiece(4, std::move(from_snapshot));

  AbstractInstance to(&schema_);
  Instance early(&schema_);
  early.Insert(emp_,
               {u_.Constant("Ada"), u_.Constant("IBM"), u_.Constant("18k")});
  Instance late(&schema_);
  late.Insert(emp_,
              {u_.Constant("Ada"), u_.Constant("IBM"), u_.Constant("20k")});
  to.AddPiece(Interval(0, 2), std::move(early));
  to.AddPiece(Interval(2, 4), std::move(late));
  to.AddPiece(Interval::FromStart(4), Instance(&schema_));
  ASSERT_TRUE(to.ValidateCover().ok());

  EXPECT_FALSE(AbstractHomomorphismExists(from, to));

  // If the codomain keeps 18k throughout, the homomorphism exists.
  AbstractInstance stable(&schema_);
  Instance snap(&schema_);
  snap.Insert(emp_,
              {u_.Constant("Ada"), u_.Constant("IBM"), u_.Constant("18k")});
  stable.AddPiece(Interval(0, 4), std::move(snap));
  stable.AddPiece(Interval::FromStart(4), Instance(&schema_));
  EXPECT_TRUE(AbstractHomomorphismExists(from, stable));
}

TEST_F(AbstractHomTest, SingleSnapshotLabeledNullMayTakeProjectedImage) {
  // N occurs only at snapshot 0; mapping it to the codomain's projected
  // unknown at snapshot 0 is a valid abstract homomorphism.
  Instance from_snapshot(&schema_);
  from_snapshot.Insert(
      emp_, {u_.Constant("Ada"), u_.Constant("IBM"), u_.FreshNull()});
  const AbstractInstance from = OnePiece(1, std::move(from_snapshot));

  Instance to_snapshot(&schema_);
  to_snapshot.Insert(emp_, {u_.Constant("Ada"), u_.Constant("IBM"),
                            u_.FreshAnnotatedNull(Interval(0, 1))});
  const AbstractInstance to = OnePiece(1, std::move(to_snapshot));

  EXPECT_TRUE(AbstractHomomorphismExists(from, to));
  EXPECT_TRUE(AbstractHomomorphismExists(to, from));
  EXPECT_TRUE(AreAbstractEquivalent(from, to));
}

TEST_F(AbstractHomTest, DifferentConstantsNeverMap) {
  Instance a_snap(&schema_);
  a_snap.Insert(emp_,
                {u_.Constant("Ada"), u_.Constant("IBM"), u_.Constant("18k")});
  const AbstractInstance a = OnePiece(2, std::move(a_snap));
  Instance b_snap(&schema_);
  b_snap.Insert(emp_,
                {u_.Constant("Ada"), u_.Constant("IBM"), u_.Constant("20k")});
  const AbstractInstance b = OnePiece(2, std::move(b_snap));
  EXPECT_FALSE(AbstractHomomorphismExists(a, b));
  EXPECT_FALSE(AbstractHomomorphismExists(b, a));
}

TEST_F(AbstractHomTest, EmptyInstanceMapsIntoAnything) {
  AbstractInstance empty(&schema_);
  empty.AddPiece(Interval::FromStart(0), Instance(&schema_));
  Instance snap(&schema_);
  snap.Insert(emp_,
              {u_.Constant("Ada"), u_.Constant("IBM"), u_.Constant("18k")});
  const AbstractInstance full = OnePiece(3, std::move(snap));
  EXPECT_TRUE(AbstractHomomorphismExists(empty, full));
  EXPECT_FALSE(AbstractHomomorphismExists(full, empty));
}

TEST_F(AbstractHomTest, MisalignedSpansAreRefinedAutomatically) {
  // Same data, different piece boundaries: still equivalent.
  Instance snap1(&schema_);
  const Value m1 = u_.FreshAnnotatedNull(Interval(0, 6));
  snap1.Insert(emp_, {u_.Constant("Ada"), u_.Constant("IBM"), m1});
  AbstractInstance a(&schema_);
  a.AddPiece(Interval(0, 6), std::move(snap1));
  a.AddPiece(Interval::FromStart(6), Instance(&schema_));

  AbstractInstance b(&schema_);
  const Value m2 = u_.FreshAnnotatedNull(Interval(0, 3));
  const Value m3 = u_.FreshAnnotatedNull(Interval(3, 6));
  Instance early(&schema_);
  early.Insert(emp_, {u_.Constant("Ada"), u_.Constant("IBM"), m2});
  Instance late(&schema_);
  late.Insert(emp_, {u_.Constant("Ada"), u_.Constant("IBM"), m3});
  b.AddPiece(Interval(0, 3), std::move(early));
  b.AddPiece(Interval(3, 6), std::move(late));
  b.AddPiece(Interval::FromStart(6), Instance(&schema_));

  EXPECT_TRUE(AreAbstractEquivalent(a, b));
}

TEST_F(AbstractHomTest, AnnotatedNullUsedTwiceInPieceMapsConsistently) {
  // The same annotated null occurring in two facts of one piece denotes the
  // same unknown per snapshot; images must agree within the piece.
  auto p_plus = schema_.AddRelationPair("P", {"a", "b"}, SchemaRole::kTarget);
  ASSERT_TRUE(p_plus.ok());
  const RelationId p = *schema_.TwinOf(*p_plus);

  Instance from_snap(&schema_);
  const Value n = u_.FreshAnnotatedNull(Interval(0, 2));
  from_snap.Insert(p, {u_.Constant("a"), n});
  from_snap.Insert(p, {n, u_.Constant("a")});
  const AbstractInstance from = OnePiece(2, std::move(from_snap));

  Instance good_snap(&schema_);
  good_snap.Insert(p, {u_.Constant("a"), u_.Constant("x")});
  good_snap.Insert(p, {u_.Constant("x"), u_.Constant("a")});
  const AbstractInstance good = OnePiece(2, std::move(good_snap));
  EXPECT_TRUE(AbstractHomomorphismExists(from, good));

  Instance bad_snap(&schema_);
  bad_snap.Insert(p, {u_.Constant("a"), u_.Constant("x")});
  bad_snap.Insert(p, {u_.Constant("y"), u_.Constant("a")});
  const AbstractInstance bad = OnePiece(2, std::move(bad_snap));
  EXPECT_FALSE(AbstractHomomorphismExists(from, bad));
}

// Example 2 with the domain pre-split into two length-1 pieces: the
// labeled null occurs in TWO pieces, so mapping it onto per-snapshot
// projections of an annotated null must still be rejected (condition 2).
TEST_F(AbstractHomTest, SplitLabeledNullStillCannotMapToAnnotated) {
  const Value n = u_.FreshNull();
  Instance snap1(&schema_), snap2(&schema_);
  snap1.Insert(emp_, {u_.Constant("Ada"), u_.Constant("IBM"), n});
  snap2.Insert(emp_, {u_.Constant("Ada"), u_.Constant("IBM"), n});
  AbstractInstance j1(&schema_);
  j1.AddPiece(Interval(0, 1), std::move(snap1));
  j1.AddPiece(Interval(1, 2), std::move(snap2));
  j1.AddPiece(Interval::FromStart(2), Instance(&schema_));
  ASSERT_TRUE(j1.ValidateCover().ok());

  Instance j2_snap(&schema_);
  j2_snap.Insert(emp_, {u_.Constant("Ada"), u_.Constant("IBM"),
                        u_.FreshAnnotatedNull(Interval(0, 2))});
  const AbstractInstance j2 = OnePiece(2, std::move(j2_snap));

  EXPECT_FALSE(AbstractHomomorphismExists(j1, j2));
  EXPECT_TRUE(AbstractHomomorphismExists(j2, j1));

  // With a CONSTANT persisting across both snapshots in the codomain, the
  // labeled null does have a consistent image.
  Instance j3_snap(&schema_);
  j3_snap.Insert(emp_, {u_.Constant("Ada"), u_.Constant("IBM"),
                        u_.Constant("18k")});
  const AbstractInstance j3 = OnePiece(2, std::move(j3_snap));
  EXPECT_TRUE(AbstractHomomorphismExists(j1, j3));
}

// The search keeps one cursor per piece on a heap stack, so the call stack
// does not grow with the piece count: 5,000 one-fact pieces run on a
// 256 KiB thread stack, where a search that recursed per piece crashed
// from 200. One labeled null N spans every piece, so the second search
// reaches the last piece, finds N's image fixed to N by the first 4,999,
// and backtracks through all of them.
TEST_F(AbstractHomTest, ManyPiecesMatchOnSmallStack) {
  constexpr TimePoint kPieces = 5000;
  const Value n = u_.FreshNull("N");
  const Value other = u_.FreshNull("N2");
  AbstractInstance a(&schema_);
  AbstractInstance b(&schema_);
  for (TimePoint i = 0; i < kPieces; ++i) {
    const Value person = u_.Constant("p" + std::to_string(i));
    Instance a_snapshot(&schema_);
    a_snapshot.Insert(emp_, {person, u_.Constant("IBM"), n});
    Instance b_snapshot(&schema_);
    const Value salary = i + 1 < kPieces ? n : other;
    b_snapshot.Insert(emp_, {person, u_.Constant("IBM"), salary});
    a.AddPiece(Interval(i, i + 1), std::move(a_snapshot));
    b.AddPiece(Interval(i, i + 1), std::move(b_snapshot));
  }
  a.AddPiece(Interval::FromStart(kPieces), Instance(&schema_));
  b.AddPiece(Interval::FromStart(kPieces), Instance(&schema_));
  ASSERT_TRUE(a.ValidateCover().ok());
  ASSERT_TRUE(b.ValidateCover().ok());
  bool into_self = false;
  bool into_split = true;
  testing::RunOnSmallStack([&] {
    into_self = AbstractHomomorphismExists(a, a);
    into_split = AbstractHomomorphismExists(a, b);
  });
  EXPECT_TRUE(into_self);
  EXPECT_FALSE(into_split);
}

}  // namespace
}  // namespace tdx
