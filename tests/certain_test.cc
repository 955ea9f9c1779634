#include "src/core/certain.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/gen/workload.h"
#include "tests/test_util.h"

namespace tdx {
namespace {

using ::tdx::testing::ParseOrDie;

class CertainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    program_ = ParseOrDie(testing::kPaperProgram);
    auto lifted =
        LiftUnionQuery(**program_->FindQuery("salaries"), program_->schema);
    ASSERT_TRUE(lifted.ok());
    lifted_query_ = std::make_unique<UnionQuery>(std::move(lifted).value());
  }

  std::unique_ptr<ParsedProgram> program_;
  std::unique_ptr<UnionQuery> lifted_query_;
};

TEST_F(CertainTest, TemporalCertainAnswersOnPaperExample) {
  auto result = CertainAnswers(*lifted_query_, program_->source,
                               program_->lifted, &program_->universe);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->chase_kind, ChaseResultKind::kSuccess);
  Universe& u = program_->universe;
  const Tuple bob{u.Constant("Bob"), u.Constant("13k"),
                  Value::OfInterval(Interval(2015, 2018))};
  EXPECT_NE(std::find(result->answers.begin(), result->answers.end(), bob),
            result->answers.end());
  // Nothing certain about 2012 — Ada's salary is unknown then.
  for (const Tuple& t : result->answers) {
    EXPECT_FALSE(t.back().interval().Contains(2012));
  }
}

// Corollary 22: certain(q, [[Ic]], M) = [[q+(Jc)!]] — the per-snapshot
// oracle (chase the materialized snapshot, naive-evaluate) agrees with
// slicing the temporal answers.
TEST_F(CertainTest, Corollary22AgreesWithSnapshotOracle) {
  auto temporal = CertainAnswers(*lifted_query_, program_->source,
                                 program_->lifted, &program_->universe);
  ASSERT_TRUE(temporal.ok());
  const UnionQuery& q = **program_->FindQuery("salaries");
  for (TimePoint l : {2012u, 2013u, 2014u, 2016u, 2018u, 2025u}) {
    auto oracle = CertainAnswersAt(q, program_->source, program_->mapping, l,
                                   &program_->universe);
    ASSERT_TRUE(oracle.ok());
    ASSERT_EQ(oracle->chase_kind, ChaseResultKind::kSuccess);
    EXPECT_EQ(ConcreteAnswersAt(temporal->answers, l), oracle->answers)
        << "l=" << l;
  }
}

TEST_F(CertainTest, CertainAnswersAreSoundForRandomSolutions) {
  // Every certain answer must hold in arbitrary solutions; solutions are
  // built from the chase result by substituting nulls with constants and
  // adding noise facts.
  auto chase = CChase(program_->source, program_->lifted, &program_->universe);
  ASSERT_TRUE(chase.ok());
  auto certain = CertainAnswers(*lifted_query_, program_->source,
                                program_->lifted, &program_->universe);
  ASSERT_TRUE(certain.ok());

  Universe& u = program_->universe;
  // Substitute every annotated null with a made-up constant; add noise.
  Instance solution = chase->target.facts();
  std::vector<Value> nulls;
  solution.ForEach([&](FactView f) {
    for (const Value& v : f.args()) {
      if (v.is_annotated_null()) nulls.push_back(v);
    }
  });
  int i = 0;
  for (const Value& n : nulls) {
    solution =
        solution.ReplaceValue(n, u.Constant("made_up" + std::to_string(i++)));
  }
  const RelationId emp_plus = *program_->schema.Find("Emp+");
  solution.Insert(emp_plus, {u.Constant("Eve"), u.Constant("ACME"),
                             u.Constant("5k"),
                             Value::OfInterval(Interval(2000, 2005))});
  ConcreteInstance solution_ci(std::move(solution));

  auto jc_abs = AbstractInstance::FromConcrete(solution_ci);
  ASSERT_TRUE(jc_abs.ok());
  const UnionQuery& q = **program_->FindQuery("salaries");
  for (TimePoint l : {2013u, 2016u, 2020u}) {
    const Instance snapshot = jc_abs->At(l, &u);
    const std::vector<Tuple> solution_answers =
        DropTuplesWithNulls(Evaluate(q, snapshot));
    for (const Tuple& t : ConcreteAnswersAt(certain->answers, l)) {
      EXPECT_NE(std::find(solution_answers.begin(), solution_answers.end(), t),
                solution_answers.end())
          << "certain answer missing from a solution at l=" << l;
    }
  }
}

TEST_F(CertainTest, FailureYieldsFailureKind) {
  auto program = ParseOrDie(R"(
    source E(name, company);
    source S(name, salary);
    target Emp(name, company, salary);
    tgd E(n, c) & S(n, s) -> Emp(n, c, s);
    egd Emp(n, c, s) & Emp(n, c, s2) -> s = s2;
    fact E("Ada", "IBM") @ [0, 5);
    fact S("Ada", "18k") @ [0, 5);
    fact S("Ada", "20k") @ [0, 5);
    query q(n, s): Emp(n, _, s);
  )");
  auto lifted = LiftUnionQuery(**program->FindQuery("q"), program->schema);
  ASSERT_TRUE(lifted.ok());
  auto result = CertainAnswers(*lifted, program->source, program->lifted,
                               &program->universe);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->chase_kind, ChaseResultKind::kFailure);
  EXPECT_TRUE(result->answers.empty());
}

// Corollary 22 at benchmark shape, without homomorphism search: slicing
// the c-chase's temporal certain answers (what `tdx_cli query` prints) at 32
// evenly spaced points must give each point's snapshot certain answers
// (what `tdx_cli query-at` prints). The employment mapping is the one whose
// st-tgd fire order decides how many nulls the c-chase mints and merges;
// cascade adds target-tgd rounds gated on egd merges.
struct SliceCase {
  const char* name;
  std::function<std::unique_ptr<Workload>()> make;
  const char* relation;       ///< q(head) :- relation(x0, ..., xk)
  std::vector<VarId> head;
  TimePoint point_span;       ///< the points spread over [0, point_span)
};

void PrintTo(const SliceCase& c, std::ostream* os) { *os << c.name; }

class Corollary22SliceTest : public ::testing::TestWithParam<SliceCase> {};

TEST_P(Corollary22SliceTest, SlicedAnswersEqualSnapshotCertainAnswers) {
  const SliceCase& c = GetParam();
  const std::unique_ptr<Workload> w = c.make();
  const RelationId rel = *w->schema.Find(c.relation);
  ConjunctiveQuery cq;
  cq.name = "q";
  Atom atom;
  atom.rel = rel;
  for (std::size_t i = 0; i < w->schema.relation(rel).arity(); ++i) {
    atom.terms.push_back(Term::Var(static_cast<VarId>(i)));
  }
  cq.body.atoms = {atom};
  cq.body.num_vars = atom.terms.size();
  cq.head = c.head;
  UnionQuery query;
  query.name = cq.name;
  query.disjuncts = {cq};
  auto lifted = LiftUnionQuery(query, w->schema);
  ASSERT_TRUE(lifted.ok()) << lifted.status();

  auto temporal =
      CertainAnswers(*lifted, w->source, w->lifted, &w->universe);
  ASSERT_TRUE(temporal.ok()) << temporal.status();
  ASSERT_EQ(temporal->chase_kind, ChaseResultKind::kSuccess);

  constexpr std::size_t kPoints = 32;
  std::vector<TimePoint> points;
  for (std::size_t i = 0; i < kPoints; ++i) {
    points.push_back(i * c.point_span / kPoints);
  }
  auto per_point = CertainAnswersAtMany(query, w->source, w->mapping, points,
                                        &w->universe, /*jobs=*/2);
  ASSERT_TRUE(per_point.ok()) << per_point.status();
  ASSERT_EQ(per_point->size(), kPoints);
  std::size_t answers = 0;
  for (std::size_t i = 0; i < kPoints; ++i) {
    ASSERT_EQ((*per_point)[i].chase_kind, ChaseResultKind::kSuccess);
    EXPECT_EQ(ConcreteAnswersAt(temporal->answers, points[i]),
              (*per_point)[i].answers)
        << c.name << " at l=" << points[i];
    answers += (*per_point)[i].answers.size();
  }
  // Not vacuous: on average every point has answers.
  EXPECT_GE(answers, kPoints);
}

INSTANTIATE_TEST_SUITE_P(
    MidSize, Corollary22SliceTest,
    ::testing::Values(
        SliceCase{"employment",
                  [] {
                    EmploymentConfig cfg;
                    cfg.num_people = 1000;
                    cfg.num_companies = 50;
                    cfg.horizon = 1000;
                    cfg.seed = 1;
                    return MakeEmploymentWorkload(cfg);
                  },
                  "Emp", {0, 2}, 1000},
        SliceCase{"cascade",
                  [] {
                    CascadeConfig cfg;
                    cfg.stages = 50;
                    cfg.ballast_keys = 30;
                    cfg.ballast_dup = 15;
                    cfg.horizon = 32;
                    return MakeCascadeWorkload(cfg);
                  },
                  "Cur", {0}, 32}),
    [](const ::testing::TestParamInfo<SliceCase>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace tdx
