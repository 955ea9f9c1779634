#include "src/temporal/abstract_instance.h"

#include <vector>

#include <gtest/gtest.h>

#include "src/core/cchase.h"
#include "src/gen/workload.h"
#include "src/temporal/snapshot.h"

namespace tdx {
namespace {

class AbstractInstanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    e_plus_ = *schema_.AddRelationPair("E", {"name", "company"},
                                       SchemaRole::kSource);
    e_ = *schema_.TwinOf(e_plus_);
  }

  ConcreteInstance PaperE() {
    // The E+ relation of Figure 4.
    ConcreteInstance ic(&schema_);
    EXPECT_TRUE(ic.Add(e_plus_, {u_.Constant("Ada"), u_.Constant("IBM")},
                       Interval(2012, 2014))
                    .ok());
    EXPECT_TRUE(ic.Add(e_plus_, {u_.Constant("Ada"), u_.Constant("Google")},
                       Interval::FromStart(2014))
                    .ok());
    EXPECT_TRUE(ic.Add(e_plus_, {u_.Constant("Bob"), u_.Constant("IBM")},
                       Interval(2013, 2018))
                    .ok());
    return ic;
  }

  Universe u_;
  Schema schema_;
  RelationId e_plus_ = 0, e_ = 0;
};

TEST_F(AbstractInstanceTest, FromConcreteCoversTimeline) {
  auto ia = AbstractInstance::FromConcrete(PaperE());
  ASSERT_TRUE(ia.ok());
  EXPECT_TRUE(ia->ValidateCover().ok());
  // Boundaries: 0, 2012, 2013, 2014, 2018.
  EXPECT_EQ(ia->Boundaries(),
            (std::vector<TimePoint>{0, 2012, 2013, 2014, 2018}));
  EXPECT_EQ(ia->pieces().size(), 5u);
  EXPECT_TRUE(ia->pieces().back().span.unbounded());
}

TEST_F(AbstractInstanceTest, PiecesHoldConstantSnapshots) {
  auto ia = AbstractInstance::FromConcrete(PaperE());
  ASSERT_TRUE(ia.ok());
  // Piece [2013, 2014): Ada@IBM and Bob@IBM (Figure 1, year 2013).
  const AbstractPiece& piece = ia->pieces()[2];
  EXPECT_EQ(piece.span, Interval(2013, 2014));
  EXPECT_EQ(piece.snapshot.size(), 2u);
  EXPECT_TRUE(piece.snapshot.Contains(
      Fact(e_, {u_.Constant("Ada"), u_.Constant("IBM")})));
  EXPECT_TRUE(piece.snapshot.Contains(
      Fact(e_, {u_.Constant("Bob"), u_.Constant("IBM")})));
}

TEST_F(AbstractInstanceTest, AtAgreesWithSnapshotAt) {
  const ConcreteInstance ic = PaperE();
  auto ia = AbstractInstance::FromConcrete(ic);
  ASSERT_TRUE(ia.ok());
  for (TimePoint l : {0u, 2011u, 2012u, 2013u, 2015u, 2018u, 2030u}) {
    auto direct = SnapshotAt(ic, l, &u_);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(ia->At(l, &u_), *direct) << "l=" << l;
  }
}

// The facts of an instance in insertion order.
std::vector<Fact> Rows(const Instance& instance) {
  std::vector<Fact> rows;
  instance.ForEach([&](FactView f) { rows.push_back(f.ToFact()); });
  return rows;
}

// An incomplete instance: a c-chase target with annotated nulls. Its pieces
// are un-projected templates, and At() projects them point by point, so it
// must agree with SnapshotAt fact for fact and in order, at every endpoint
// and inside every piece.
TEST_F(AbstractInstanceTest, AtAgreesWithSnapshotAtOnACChaseTarget) {
  RandomConfig cfg;
  cfg.num_facts = 60;
  cfg.seed = 3;
  auto w = MakeRandomWorkload(cfg);
  auto chase = CChase(w->source, w->lifted, &w->universe);
  ASSERT_TRUE(chase.ok()) << chase.status();
  ASSERT_EQ(chase->kind, ChaseResultKind::kSuccess) << chase->failure_reason;
  const ConcreteInstance& target = chase->target;
  ASSERT_FALSE(target.IsComplete());
  auto ia = AbstractInstance::FromConcrete(target);
  ASSERT_TRUE(ia.ok()) << ia.status();
  ASSERT_TRUE(ia->ValidateCover().ok());
  for (const AbstractPiece& piece : ia->pieces()) {
    const TimePoint s = piece.span.start();
    const TimePoint inside =
        piece.span.unbounded() ? s + 1 : s + (piece.span.end() - s) / 2;
    for (const TimePoint l : {s, inside}) {
      auto direct = SnapshotAt(target, l, &w->universe);
      ASSERT_TRUE(direct.ok());
      EXPECT_EQ(Rows(ia->At(l, &w->universe)), Rows(*direct)) << "l=" << l;
    }
  }
}

TEST_F(AbstractInstanceTest, RefinedAtPreservesSnapshots) {
  auto ia = AbstractInstance::FromConcrete(PaperE());
  ASSERT_TRUE(ia.ok());
  const AbstractInstance refined = ia->RefinedAt({2013, 2015, 2016, 2025});
  EXPECT_TRUE(refined.ValidateCover().ok());
  EXPECT_GT(refined.pieces().size(), ia->pieces().size());
  for (TimePoint l : {2012u, 2014u, 2015u, 2016u, 2026u}) {
    EXPECT_EQ(refined.At(l, &u_), ia->At(l, &u_)) << "l=" << l;
  }
}

TEST_F(AbstractInstanceTest, ValidateCoverRejectsGaps) {
  AbstractInstance ia(&schema_);
  ia.AddPiece(Interval(0, 5), Instance(&schema_));
  ia.AddPiece(Interval::FromStart(7), Instance(&schema_));
  EXPECT_FALSE(ia.ValidateCover().ok());
}

TEST_F(AbstractInstanceTest, ValidateCoverRejectsBoundedTail) {
  AbstractInstance ia(&schema_);
  ia.AddPiece(Interval(0, 5), Instance(&schema_));
  EXPECT_FALSE(ia.ValidateCover().ok());
}

TEST_F(AbstractInstanceTest, ValidateCoverRejectsLateStart) {
  AbstractInstance ia(&schema_);
  ia.AddPiece(Interval::FromStart(1), Instance(&schema_));
  EXPECT_FALSE(ia.ValidateCover().ok());
}

TEST_F(AbstractInstanceTest, ValidateCoverChecksAnnotationContainsSpan) {
  AbstractInstance ia(&schema_);
  Instance snapshot(&schema_);
  snapshot.Insert(e_, {u_.Constant("Ada"),
                       u_.FreshAnnotatedNull(Interval(2, 3))});
  ia.AddPiece(Interval(0, 5), snapshot);
  ia.AddPiece(Interval::FromStart(5), Instance(&schema_));
  EXPECT_FALSE(ia.ValidateCover().ok());
}

TEST_F(AbstractInstanceTest, LabeledNullSharedAcrossRefinedPieces) {
  // A labeled null means "the same unknown at every snapshot of the piece";
  // refinement must not change that (Example 2's J1 shape).
  AbstractInstance ia(&schema_);
  Instance snapshot(&schema_);
  const Value n = u_.FreshNull();
  snapshot.Insert(e_, {u_.Constant("Ada"), n});
  ia.AddPiece(Interval(0, 4), snapshot);
  ia.AddPiece(Interval::FromStart(4), Instance(&schema_));
  ASSERT_TRUE(ia.ValidateCover().ok());
  const AbstractInstance refined = ia.RefinedAt({2});
  const Instance at1 = refined.At(1, &u_);
  const Instance at3 = refined.At(3, &u_);
  ASSERT_EQ(at1.facts(e_).size(), 1u);
  EXPECT_EQ(at1.facts(e_)[0].arg(1), n);
  EXPECT_EQ(at3.facts(e_)[0].arg(1), n);
}

TEST_F(AbstractInstanceTest, AlignPiecesProducesMatchingSpans) {
  auto a = AbstractInstance::FromConcrete(PaperE());
  ASSERT_TRUE(a.ok());
  ConcreteInstance other(&schema_);
  ASSERT_TRUE(other.Add(e_plus_, {u_.Constant("Eve"), u_.Constant("ACME")},
                        Interval(2010, 2016))
                  .ok());
  auto b = AbstractInstance::FromConcrete(other);
  ASSERT_TRUE(b.ok());
  auto [ra, rb] = AlignPieces(*a, *b);
  ASSERT_EQ(ra.pieces().size(), rb.pieces().size());
  for (std::size_t i = 0; i < ra.pieces().size(); ++i) {
    EXPECT_EQ(ra.pieces()[i].span, rb.pieces()[i].span);
  }
}

TEST_F(AbstractInstanceTest, EmptyConcreteGivesSingleEmptyPiece) {
  ConcreteInstance empty(&schema_);
  auto ia = AbstractInstance::FromConcrete(empty);
  ASSERT_TRUE(ia.ok());
  ASSERT_EQ(ia->pieces().size(), 1u);
  EXPECT_EQ(ia->pieces()[0].span, Interval::FromStart(0));
  EXPECT_TRUE(ia->pieces()[0].snapshot.empty());
  EXPECT_TRUE(ia->ValidateCover().ok());
}

}  // namespace
}  // namespace tdx
