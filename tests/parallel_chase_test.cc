// Parallel snapshot execution must be a pure scheduling choice: for any
// jobs value the per-point certain answers equal the one-point answers, and
// a dropped task surfaces as an abort of exactly its piece's points.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/certain.h"
#include "src/gen/workload.h"
#include "src/obs/metrics.h"

namespace tdx {
namespace {

std::vector<TimePoint> ProbePoints(const ConcreteInstance& ic) {
  std::vector<TimePoint> pts = ic.Endpoints();
  pts.push_back(ic.StabilizationPoint() + 2);
  pts.push_back(0);
  return pts;
}

/// The identity UCQ over relation `r`.
UnionQuery IdentityQuery(const Schema& schema, RelationId r) {
  const std::size_t arity = schema.relation(r).arity();
  ConjunctiveQuery cq;
  Atom atom{r, {}};
  for (std::size_t i = 0; i < arity; ++i) {
    atom.terms.push_back(Term::Var(static_cast<VarId>(i)));
    cq.head.push_back(static_cast<VarId>(i));
  }
  cq.body.atoms.push_back(atom);
  cq.body.num_vars = arity;
  UnionQuery query;
  query.disjuncts.push_back(cq);
  return query;
}

/// The identity UCQ over the schema's first target relation (generated
/// workloads carry no queries of their own).
UnionQuery FirstTargetIdentityQuery(const Schema& schema) {
  for (RelationId r = 0; r < schema.relation_count(); ++r) {
    if (schema.relation(r).role == SchemaRole::kTarget) {
      return IdentityQuery(schema, r);
    }
  }
  return UnionQuery();
}

class ParallelSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelSweep, CertainAnswersAtManyMatchesPerPoint) {
  RandomMappingConfig cfg;
  cfg.seed = GetParam();
  auto w = MakeRandomMappingWorkload(cfg);
  const UnionQuery query = FirstTargetIdentityQuery(w->schema);
  ASSERT_FALSE(query.disjuncts.empty());

  const std::vector<TimePoint> points = ProbePoints(w->source);
  auto batched = CertainAnswersAtMany(query, w->source, w->mapping, points,
                                      &w->universe, 4);
  ASSERT_TRUE(batched.ok()) << batched.status();
  ASSERT_EQ(batched->size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    auto single = CertainAnswersAt(query, w->source, w->mapping, points[i],
                                   &w->universe);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ((*batched)[i].chase_kind, single->chase_kind)
        << "l=" << points[i];
    EXPECT_EQ((*batched)[i].answers, single->answers) << "l=" << points[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelSweep,
                         ::testing::Range<std::uint64_t>(1, 9));

// A dropped CertainAnswersAtMany task must surface as that point's
// kAborted result: never a read of the unfilled slot, never an empty answer
// set passed off as certain. ParallelFor's inline path consults the
// dispatch site too, so one job is as exposed as four.
TEST(ParallelFaultTest, DroppedCertainAnswersPointReportsAborted) {
  for (const unsigned jobs : {1u, 4u}) {
    EmploymentConfig cfg;
    cfg.num_people = 6;
    cfg.seed = 5;
    auto w = MakeEmploymentWorkload(cfg);
    const UnionQuery query = FirstTargetIdentityQuery(w->schema);
    ASSERT_FALSE(query.disjuncts.empty());
    const std::vector<TimePoint> points = ProbePoints(w->source);
    ASSERT_GT(points.size(), 1u);

    FaultRegistry::Arm("thread-pool/dispatch",
                       Status::Internal("injected fault"));
    auto batched = CertainAnswersAtMany(query, w->source, w->mapping, points,
                                        &w->universe, jobs);
    FaultRegistry::DisarmAll();
    ASSERT_TRUE(batched.ok()) << batched.status();
    ASSERT_EQ(batched->size(), points.size());
    std::size_t aborted = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const CertainAnswersResult& got = (*batched)[i];
      if (got.chase_kind == ChaseResultKind::kAborted) {
        ++aborted;
        EXPECT_TRUE(got.answers.empty());
        continue;
      }
      auto single = CertainAnswersAt(query, w->source, w->mapping, points[i],
                                     &w->universe);
      ASSERT_TRUE(single.ok());
      EXPECT_EQ(got.chase_kind, single->chase_kind) << "l=" << points[i];
      EXPECT_EQ(got.answers, single->answers) << "l=" << points[i];
    }
    EXPECT_EQ(aborted, 1u) << "jobs=" << jobs;
  }
}

/// The small cascade of the tests below: its ballast holds over [0, 4) and
/// everything else over [0, 8), so its snapshots form the pieces [0, 4),
/// [4, 8) and [8, inf).
std::unique_ptr<Workload> SmallCascade() {
  CascadeConfig cfg;
  cfg.stages = 5;
  cfg.ballast_keys = 3;
  cfg.ballast_dup = 3;
  cfg.horizon = 8;
  return MakeCascadeWorkload(cfg);
}

std::uint64_t CounterValue(std::string_view name) {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Instance().Snapshot();
  const obs::MetricValue* metric = snap.Find(name);
  return metric == nullptr ? 0 : metric->value;
}

/// Every integer in [0, StabilizationPoint() + 3), each twice, shuffled.
std::vector<TimePoint> DensePoints(const ConcreteInstance& source) {
  std::vector<TimePoint> points;
  for (TimePoint l = 0; l < source.StabilizationPoint() + 3; ++l) {
    points.push_back(l);
    points.push_back(l);
  }
  std::mt19937_64 rng(7);
  std::shuffle(points.begin(), points.end(), rng);
  return points;
}

// Points that share a piece share one snapshot chase, and each still gets
// exactly the one-point answer, for dense, unsorted and repeated points.
TEST(CertainAnswersPiecesTest, DensePointsMatchPerPoint) {
  EmploymentConfig employment;
  employment.num_people = 6;
  employment.horizon = 30;
  employment.seed = 4;
  struct Case {
    std::string name;
    std::unique_ptr<Workload> w;
    UnionQuery query;
  };
  std::vector<Case> cases;
  cases.push_back({"cascade", SmallCascade(), {}});
  cases.push_back({"employment", MakeEmploymentWorkload(employment), {}});
  cases[0].query = IdentityQuery(cases[0].w->schema,
                                 *cases[0].w->schema.Find("Cur"));
  cases[1].query = FirstTargetIdentityQuery(cases[1].w->schema);
  for (Case& c : cases) {
    ASSERT_FALSE(c.query.disjuncts.empty());
    const std::vector<TimePoint> points = DensePoints(c.w->source);
    for (const unsigned jobs : {1u, 4u}) {
      auto batched = CertainAnswersAtMany(c.query, c.w->source, c.w->mapping,
                                          points, &c.w->universe, jobs);
      ASSERT_TRUE(batched.ok()) << batched.status();
      ASSERT_EQ(batched->size(), points.size());
      std::size_t answers = 0;
      for (std::size_t i = 0; i < points.size(); ++i) {
        auto single = CertainAnswersAt(c.query, c.w->source, c.w->mapping,
                                       points[i], &c.w->universe);
        ASSERT_TRUE(single.ok());
        EXPECT_EQ((*batched)[i].chase_kind, single->chase_kind)
            << c.name << " jobs=" << jobs << " l=" << points[i];
        EXPECT_EQ((*batched)[i].answers, single->answers)
            << c.name << " jobs=" << jobs << " l=" << points[i];
        answers += single->answers.size();
      }
      EXPECT_GT(answers, 0u) << c.name;
    }
  }
}

// The counters show the sharing: the small cascade's 22 points fall into
// its 3 pieces.
TEST(CertainAnswersPiecesTest, CountsOneChasePerPiece) {
  auto w = SmallCascade();
  const UnionQuery query = IdentityQuery(w->schema, *w->schema.Find("Cur"));
  const std::vector<TimePoint> points = DensePoints(w->source);
  ASSERT_EQ(points.size(), 22u);
  const std::uint64_t points_before = CounterValue("certain.points");
  const std::uint64_t chases_before = CounterValue("certain.snapshot_chases");
  auto batched = CertainAnswersAtMany(query, w->source, w->mapping, points,
                                      &w->universe, 4);
  ASSERT_TRUE(batched.ok()) << batched.status();
  EXPECT_EQ(CounterValue("certain.points") - points_before, 22u);
  EXPECT_EQ(CounterValue("certain.snapshot_chases") - chases_before, 3u);
}

TEST(CertainAnswersPiecesTest, IncompleteSourceIsRejected) {
  auto w = SmallCascade();
  const UnionQuery query = IdentityQuery(w->schema, *w->schema.Find("Cur"));
  const RelationId sseed_plus = *w->schema.Find("SSeed+");
  ASSERT_TRUE(w->source
                  .Add(sseed_plus,
                       {w->universe.FreshAnnotatedNull(Interval(0, 2))},
                       Interval(0, 2))
                  .ok());
  auto batched = CertainAnswersAtMany(query, w->source, w->mapping, {0, 1},
                                      &w->universe, 1);
  ASSERT_FALSE(batched.ok());
  EXPECT_EQ(batched.status().code(), StatusCode::kInvalidArgument);
}

// A dropped task costs its whole piece: exactly the points of that piece
// report kAborted, every other point keeps its exact answers. Every piece
// here holds at least two requested points, so whichever task ParallelFor
// drops, the abort covers more than one point.
TEST(ParallelFaultTest, DroppedPieceAbortsEachOfItsPoints) {
  for (const unsigned jobs : {1u, 4u}) {
    auto w = SmallCascade();
    const UnionQuery query = IdentityQuery(w->schema, *w->schema.Find("Cur"));
    const std::vector<TimePoint> points = {9, 1, 5, 0, 12, 3, 6, 1, 8};
    const auto piece = [](TimePoint l) { return l < 4 ? 0 : l < 8 ? 1 : 2; };

    FaultRegistry::Arm("thread-pool/dispatch",
                       Status::Internal("injected fault"));
    auto batched = CertainAnswersAtMany(query, w->source, w->mapping, points,
                                        &w->universe, jobs);
    FaultRegistry::DisarmAll();
    ASSERT_TRUE(batched.ok()) << batched.status();
    ASSERT_EQ(batched->size(), points.size());
    int dropped = -1;
    std::size_t aborted = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if ((*batched)[i].chase_kind == ChaseResultKind::kAborted) {
        dropped = piece(points[i]);
        break;
      }
    }
    ASSERT_NE(dropped, -1) << "jobs=" << jobs;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const CertainAnswersResult& got = (*batched)[i];
      if (piece(points[i]) == dropped) {
        ++aborted;
        EXPECT_EQ(got.chase_kind, ChaseResultKind::kAborted)
            << "l=" << points[i];
        EXPECT_TRUE(got.answers.empty()) << "l=" << points[i];
        continue;
      }
      auto single = CertainAnswersAt(query, w->source, w->mapping, points[i],
                                     &w->universe);
      ASSERT_TRUE(single.ok());
      EXPECT_EQ(got.chase_kind, single->chase_kind) << "l=" << points[i];
      EXPECT_EQ(got.answers, single->answers) << "l=" << points[i];
    }
    EXPECT_GE(aborted, 2u) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace tdx
