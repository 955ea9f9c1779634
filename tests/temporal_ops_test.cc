#include "src/core/temporal_ops.h"

#include <gtest/gtest.h>

#include "src/core/align.h"
#include "src/core/cchase.h"
#include "src/temporal/coalesce.h"
#include "src/temporal/snapshot.h"
#include "tests/test_util.h"

namespace tdx {
namespace {

using ::tdx::testing::HasConcreteFact;
using ::tdx::testing::ParseOrDie;

TEST(TemporalOpNamesTest, RoundTrip) {
  for (TemporalOp op : {TemporalOp::kOncePast, TemporalOp::kAlwaysPast,
                        TemporalOp::kOnceFuture, TemporalOp::kAlwaysFuture}) {
    TemporalOp back;
    ASSERT_TRUE(TemporalOpFromName(TemporalOpName(op), &back));
    EXPECT_EQ(back, op);
  }
  TemporalOp out;
  EXPECT_FALSE(TemporalOpFromName("nonsense", &out));
  EXPECT_EQ(ClosureRelationName("R", TemporalOp::kOncePast), "R__once_past");
}

class ClosureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_plus_ = *schema_.AddRelationPair("R", {"a"}, SchemaRole::kSource);
    c_plus_ = *schema_.AddRelationPair("C", {"a"}, SchemaRole::kSource);
  }

  /// Materializes `op` over R+ (facts given as intervals for constant "x")
  /// and returns the closure intervals produced.
  std::vector<Interval> Closure(TemporalOp op,
                                const std::vector<Interval>& ivs) {
    Universe u;
    ConcreteInstance ic(&schema_);
    for (const Interval& iv : ivs) {
      EXPECT_TRUE(ic.Add(r_plus_, {u.Constant("x")}, iv).ok());
    }
    EXPECT_TRUE(MaterializeClosure(ic, r_plus_, op, c_plus_, &ic).ok());
    std::vector<Interval> out;
    for (const FactView f : ic.facts().facts(c_plus_)) {
      out.push_back(f.interval());
    }
    return out;
  }

  Schema schema_;
  RelationId r_plus_ = 0, c_plus_ = 0;
};

TEST_F(ClosureTest, OncePastStartsAtEarliestPoint) {
  const auto out = Closure(TemporalOp::kOncePast,
                           {Interval(5, 8), Interval(2, 3)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Interval::FromStart(2));
}

TEST_F(ClosureTest, AlwaysPastRequiresCoverageFromZero) {
  EXPECT_TRUE(Closure(TemporalOp::kAlwaysPast, {Interval(2, 9)}).empty());
  const auto out = Closure(TemporalOp::kAlwaysPast,
                           {Interval(0, 4), Interval(4, 7), Interval(9, 12)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Interval(0, 7));  // the run starting at 0, coalesced
}

TEST_F(ClosureTest, OnceFutureEndsAtLatestPoint) {
  const auto out = Closure(TemporalOp::kOnceFuture,
                           {Interval(5, 8), Interval(10, 12)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Interval(0, 12));
}

TEST_F(ClosureTest, OnceFutureUnboundedCoversEverything) {
  const auto out = Closure(TemporalOp::kOnceFuture,
                           {Interval(5, 8), Interval::FromStart(20)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Interval::FromStart(0));
}

TEST_F(ClosureTest, AlwaysFutureNeedsUnboundedRun) {
  EXPECT_TRUE(Closure(TemporalOp::kAlwaysFuture, {Interval(2, 9)}).empty());
  const auto out = Closure(TemporalOp::kAlwaysFuture,
                           {Interval(2, 5), Interval::FromStart(8)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Interval::FromStart(8));
}

TEST_F(ClosureTest, AdjacentRunsCoalesceBeforeClosure) {
  const auto out = Closure(TemporalOp::kAlwaysFuture,
                           {Interval(2, 5), Interval(5, 9),
                            Interval::FromStart(9)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Interval::FromStart(2));
}

TEST_F(ClosureTest, RejectsNullsAndWrongArity) {
  Universe u;
  ConcreteInstance ic(&schema_);
  const Value n = u.FreshAnnotatedNull(Interval(0, 2));
  ASSERT_TRUE(ic.Add(r_plus_, {n}, Interval(0, 2)).ok());
  EXPECT_FALSE(
      MaterializeClosure(ic, r_plus_, TemporalOp::kOncePast, c_plus_, &ic)
          .ok());
}

// The paper's Section 7 example: every PhD graduate was once a candidate.
TEST(TemporalOpsParserTest, PhdExampleEndToEnd) {
  auto program = ParseOrDie(R"(
    source Grad(name);
    source Cand(name, adviser);
    target Alum(name, adviser);
    # Alum records pair graduates with an adviser they had at SOME point
    # in the past (the body-side fragment of the paper's extension).
    tgd g1: Grad(n) & once_past(Cand(n, a)) -> Alum(n, a);

    fact Cand("ada", "turing") @ [1, 4);
    fact Grad("ada")           @ [6, inf);
    fact Grad("eve")           @ [6, inf);
  )");
  // The closure relation was created and materialized.
  auto closure = program->schema.Find("Cand__once_past+");
  ASSERT_TRUE(closure.ok());
  EXPECT_TRUE(HasConcreteFact(program->source, program->universe,
                              "Cand__once_past+", {"ada", "turing"},
                              Interval::FromStart(1)));

  auto chase = CChase(program->source, program->lifted, &program->universe);
  ASSERT_TRUE(chase.ok()) << chase.status();
  ASSERT_EQ(chase->kind, ChaseResultKind::kSuccess);
  // Ada graduates at 6, was a candidate in the past: Alum from 6 on.
  EXPECT_TRUE(HasConcreteFact(chase->target, program->universe, "Alum+",
                              {"ada", "turing"}, Interval::FromStart(6)));
  // Eve was never a candidate: no Alum fact.
  const RelationId alum_plus = *program->schema.Find("Alum+");
  for (const FactView f : chase->target.facts().facts(alum_plus)) {
    EXPECT_NE(program->universe.Render(f.arg(0)), "eve");
  }
}

TEST(TemporalOpsParserTest, ClosureIsPlainSourceDataSoCorollary20Holds) {
  auto program = ParseOrDie(R"(
    source Grad(name);
    source Cand(name, adviser);
    target Alum(name, adviser);
    tgd Grad(n) & once_past(Cand(n, a)) -> Alum(n, a);
    fact Cand("ada", "turing") @ [1, 4);
    fact Cand("ada", "hopper") @ [3, 7);
    fact Grad("ada")           @ [5, inf);
  )");
  auto report = VerifyCorollary20(program->source, program->mapping,
                                  program->lifted, &program->universe);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->aligned());
}

TEST(TemporalOpsParserTest, OperatorsRejectedOutsideTgdBodies) {
  auto in_head = ParseProgram(R"(
    source A(x);
    target T(x);
    tgd A(x) -> once_past(T(x));
  )");
  EXPECT_FALSE(in_head.ok());

  auto in_query = ParseProgram(R"(
    source A(x);
    target T(x);
    tgd A(x) -> T(x);
    query q(x): once_past(T(x));
  )");
  EXPECT_FALSE(in_query.ok());

  auto in_egd = ParseProgram(R"(
    source A(x);
    target T(x, y);
    tgd A(x) -> T(x, x);
    egd T(x, y) & once_past(T(x, z)) -> y = z;
  )");
  EXPECT_FALSE(in_egd.ok());
}

TEST(TemporalOpsParserTest, SharedClosureRelationAcrossTgds) {
  auto program = ParseOrDie(R"(
    source A(x);
    target T1(x);
    target T2(x);
    tgd A(x) & once_past(A(x)) -> T1(x);
    tgd once_past(A(x)) -> T2(x);
    fact A("v") @ [3, 5);
  )");
  // One closure spec despite two uses.
  EXPECT_EQ(program->closures.size(), 1u);
  auto chase = CChase(program->source, program->lifted, &program->universe);
  ASSERT_TRUE(chase.ok());
  // Normalization fragments the closure rows; coalescing joins them again.
  const ConcreteInstance target = Coalesce(chase->target);
  // T2 holds from 3 on (once_past), T1 only while A holds.
  EXPECT_TRUE(HasConcreteFact(target, program->universe, "T2+", {"v"},
                              Interval::FromStart(3)));
  EXPECT_TRUE(HasConcreteFact(target, program->universe, "T1+", {"v"},
                              Interval(3, 5)));
}

}  // namespace
}  // namespace tdx
