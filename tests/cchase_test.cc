#include "src/core/cchase.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/temporal/coalesce.h"
#include "tests/test_util.h"

namespace tdx {
namespace {

using ::tdx::testing::HasConcreteFact;
using ::tdx::testing::ParseOrDie;

class PaperCChaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    program_ = ParseOrDie(testing::kPaperProgram);
    auto outcome = CChase(program_->source, program_->lifted,
                          &program_->universe);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    outcome_ = std::make_unique<CChaseOutcome>(std::move(outcome).value());
  }

  std::unique_ptr<ParsedProgram> program_;
  std::unique_ptr<CChaseOutcome> outcome_;
};

// Example 17 / Figure 9: the complete rows of the c-chase result.
TEST_F(PaperCChaseTest, Figure9CompleteRows) {
  ASSERT_EQ(outcome_->kind, ChaseResultKind::kSuccess);
  const Universe& u = program_->universe;
  const ConcreteInstance& jc = outcome_->target;
  EXPECT_TRUE(
      HasConcreteFact(jc, u, "Emp+", {"Ada", "IBM", "18k"},
                      Interval(2013, 2014)));
  EXPECT_TRUE(HasConcreteFact(jc, u, "Emp+", {"Ada", "Google", "18k"},
                              Interval::FromStart(2014)));
  EXPECT_TRUE(HasConcreteFact(jc, u, "Emp+", {"Bob", "IBM", "13k"},
                              Interval(2015, 2018)));
}

// Figure 9's two unknown rows carry interval-annotated nulls whose
// annotations equal the facts' intervals.
TEST_F(PaperCChaseTest, Figure9AnnotatedNullRows) {
  const Universe& u = program_->universe;
  const ConcreteInstance& jc = outcome_->target;
  const RelationId emp_plus = *program_->schema.Find("Emp+");

  std::size_t null_rows = 0;
  for (const FactView fact : jc.facts().facts(emp_plus)) {
    const Value& salary = fact.arg(2);
    if (!salary.is_annotated_null()) continue;
    ++null_rows;
    EXPECT_EQ(salary.interval(), fact.interval());
    const std::string name = u.Render(fact.arg(0));
    if (name == "Ada") {
      EXPECT_EQ(fact.interval(), Interval(2012, 2013));
      EXPECT_EQ(u.Render(fact.arg(1)), "IBM");
    } else {
      EXPECT_EQ(name, "Bob");
      EXPECT_EQ(fact.interval(), Interval(2013, 2015));
      EXPECT_EQ(u.Render(fact.arg(1)), "IBM");
    }
  }
  EXPECT_EQ(null_rows, 2u);
  EXPECT_EQ(jc.size(), 5u);  // exactly the five rows of Figure 9
}

TEST_F(PaperCChaseTest, NormalizedSourceIsFigure5) {
  // Step 1 of the c-chase materializes Figure 5.
  EXPECT_EQ(outcome_->source_norm_stats.output_facts, 9u);
  EXPECT_TRUE(HasConcreteFact(outcome_->normalized_source,
                              program_->universe, "E+", {"Bob", "IBM"},
                              Interval(2013, 2015)));
}

TEST_F(PaperCChaseTest, TargetIsValidConcreteInstance) {
  EXPECT_TRUE(outcome_->target.Validate().ok());
  EXPECT_FALSE(outcome_->target.IsComplete());
}

TEST(CChaseTest, FailsOnConflictingConstants) {
  auto program = ParseOrDie(R"(
    source E(name, company);
    source S(name, salary);
    target Emp(name, company, salary);
    tgd E(n, c) & S(n, s) -> Emp(n, c, s);
    egd Emp(n, c, s) & Emp(n, c, s2) -> s = s2;
    fact E("Ada", "IBM") @ [0, 10);
    fact S("Ada", "18k") @ [0, 10);
    fact S("Ada", "20k") @ [5, 10);
  )");
  auto outcome = CChase(program->source, program->lifted, &program->universe);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, ChaseResultKind::kFailure);
  EXPECT_FALSE(outcome->failure_reason.empty());
}

TEST(CChaseTest, DisjointConflictDoesNotFail) {
  // The same two salaries on DISJOINT intervals are consistent: the egd's
  // shared t never binds across them.
  auto program = ParseOrDie(R"(
    source E(name, company);
    source S(name, salary);
    target Emp(name, company, salary);
    tgd E(n, c) & S(n, s) -> Emp(n, c, s);
    egd Emp(n, c, s) & Emp(n, c, s2) -> s = s2;
    fact E("Ada", "IBM") @ [0, 10);
    fact S("Ada", "18k") @ [0, 5);
    fact S("Ada", "20k") @ [5, 10);
  )");
  auto outcome = CChase(program->source, program->lifted, &program->universe);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, ChaseResultKind::kSuccess);
  EXPECT_TRUE(HasConcreteFact(outcome->target, program->universe, "Emp+",
                              {"Ada", "IBM", "18k"}, Interval(0, 5)));
  EXPECT_TRUE(HasConcreteFact(outcome->target, program->universe, "Emp+",
                              {"Ada", "IBM", "20k"}, Interval(5, 10)));
}

TEST(CChaseTest, RejectsIncompleteSource) {
  auto program = ParseOrDie(R"(
    source E(name, company);
    target T(name);
    tgd E(n, c) -> T(n);
  )");
  const RelationId e_plus = *program->schema.Find("E+");
  ASSERT_TRUE(program->source
                  .Add(e_plus,
                       {program->universe.Constant("Ada"),
                        program->universe.FreshAnnotatedNull(Interval(0, 2))},
                       Interval(0, 2))
                  .ok());
  EXPECT_FALSE(CChase(program->source, program->lifted,
                      &program->universe)
                   .ok());
}

// A budget that trips in the st phase still hands back what the phase
// materialized, as one that trips in a target round does.
TEST(CChaseTest, StPhaseAbortKeepsThePartialTarget) {
  auto program = ParseOrDie(R"(
    source E(name, company);
    target T(name);
    tgd E(n, c) -> T(n);
    fact E("Ada", "IBM") @ [0, 5);
    fact E("Bob", "IBM") @ [2, 7);
  )");
  CChaseOptions options;
  options.limits.max_tgd_fires = 1;
  auto outcome =
      CChase(program->source, program->lifted, &program->universe, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_EQ(outcome->kind, ChaseResultKind::kAborted);
  EXPECT_EQ(outcome->abort_dimension, ResourceDimension::kTgdFires);
  EXPECT_EQ(outcome->stats.tgd_fires, 1u);
  EXPECT_EQ(outcome->target.size(), 1u);
  EXPECT_TRUE(outcome->target.Validate().ok());
}

TEST(CChaseTest, EgdFragmentsTargetBeforeMerging) {
  // m1 produces Emp(Ada, IBM, N^[0,10), [0,10)); m2 produces
  // Emp(Ada, M^[3,6), 18k, [3,6)). No tgd body joins E with S, so the
  // source stays whole and only target normalization w.r.t. the egd bodies
  // can fragment the null row, so that k1 and k2 equate the middle piece.
  auto program = ParseOrDie(R"(
    source E(name, company);
    source S(name, salary);
    target Emp(name, company, salary);
    tgd m1: E(n, c) -> exists s: Emp(n, c, s);
    tgd m2: S(n, s) -> exists c: Emp(n, c, s);
    egd k1: Emp(n, c, _) & Emp(n, c2, _) -> c = c2;
    egd k2: Emp(n, _, s) & Emp(n, _, s2) -> s = s2;
    fact E("Ada", "IBM") @ [0, 10);
    fact S("Ada", "18k") @ [3, 6);
  )");
  auto outcome = CChase(program->source, program->lifted, &program->universe);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->kind, ChaseResultKind::kSuccess);
  EXPECT_EQ(outcome->source_norm_stats.output_facts, 2u);
  EXPECT_EQ(outcome->stats.egd_steps, 2u);
  const Universe& u = program->universe;
  EXPECT_TRUE(HasConcreteFact(outcome->target, u, "Emp+",
                              {"Ada", "IBM", "18k"}, Interval(3, 6)));
  // The unknown pieces surround the known one.
  EXPECT_TRUE(HasConcreteFact(outcome->target, u, "Emp+", {"Ada", "IBM", "_"},
                              Interval(0, 3)));
  EXPECT_TRUE(HasConcreteFact(outcome->target, u, "Emp+", {"Ada", "IBM", "_"},
                              Interval(6, 10)));
  EXPECT_EQ(outcome->target.size(), 3u);
  EXPECT_TRUE(outcome->target.Validate().ok());
}

TEST(CChaseTest, CoalesceOptionCompactsResult) {
  auto program = ParseOrDie(R"(
    source E(name, company);
    source S(name, salary);
    target Emp(name, company, salary);
    tgd E(n, c) & S(n, s) -> Emp(n, c, s);
    fact E("Ada", "IBM") @ [0, 10);
    fact S("Ada", "18k") @ [0, 4);
    fact S("Ada", "18k") @ [4, 10);
  )");
  auto loose = CChase(program->source, program->lifted, &program->universe);
  ASSERT_TRUE(loose.ok());
  const ConcreteInstance tight = Coalesce(loose->target);
  EXPECT_GT(loose->target.size(), tight.size());
  EXPECT_TRUE(HasConcreteFact(tight, program->universe, "Emp+",
                              {"Ada", "IBM", "18k"}, Interval(0, 10)));
}

TEST(CChaseTest, NaiveNormalizerOptionGivesEquivalentResult) {
  auto p1 = ParseOrDie(testing::kPaperProgram);
  auto p2 = ParseOrDie(testing::kPaperProgram);
  auto with_alg = CChase(p1->source, p1->lifted, &p1->universe);
  CChaseOptions opts;
  opts.use_naive_normalizer = true;
  auto with_naive = CChase(p2->source, p2->lifted, &p2->universe, opts);
  ASSERT_TRUE(with_alg.ok());
  ASSERT_TRUE(with_naive.ok());
  EXPECT_EQ(with_alg->kind, with_naive->kind);
  // The naive normalizer fragments more, so the target has at least as
  // many rows; both contain the fully known rows.
  EXPECT_GE(with_naive->target.size(), with_alg->target.size());
  EXPECT_TRUE(HasConcreteFact(with_naive->target, p2->universe, "Emp+",
                              {"Ada", "IBM", "18k"}, Interval(2013, 2014)));
}

TEST(CChaseTest, InferTemporalVarValidation) {
  Schema schema;
  const RelationId r =
      *schema.AddTemporalRelation("R+", {"a"}, SchemaRole::kSource);
  Conjunction good;
  Atom a1, a2;
  a1.rel = r;
  a1.terms = {Term::Var(0), Term::Var(2)};
  a2.rel = r;
  a2.terms = {Term::Var(1), Term::Var(2)};
  good.atoms = {a1, a2};
  good.num_vars = 3;
  auto t = InferTemporalVar(good);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 2u);

  Conjunction mismatched = good;
  mismatched.atoms[1].terms.back() = Term::Var(1);
  EXPECT_FALSE(InferTemporalVar(mismatched).ok());

  Conjunction non_var = good;
  non_var.atoms[0].terms.back() = Term::Val(Value::OfInterval(Interval(0, 1)));
  EXPECT_FALSE(InferTemporalVar(non_var).ok());
}

// The canonical fire order belongs to the restricted chase, not to the
// container its triggers are kept in: a rule's triggers fire in ascending
// order of their head-visible universal values (x, then t), one per value,
// whatever order their body facts were inserted in. The rule under test,
// R2(w, x, y) -> exists z: T(x, z), is a target tgd. The full st-tgd
// copies R into R2 in key order, led by the rank w; the ranks run against
// x, so R2 holds the facts in descending x order, several y per x.
class CChaseFireOrderTest : public ::testing::Test {
 protected:
  static constexpr int kKeys = 5;
  static constexpr int kPerKey = 3;
  static constexpr std::size_t kCopies = kKeys * kPerKey;

  /// Interns x0 < x1 < ... and then the ranks w0 < w1 < ..., adds
  /// R(w_(kKeys-1-i), x_i, y_j) for every i and j, and c-chases under
  /// `limits`.
  CChaseOutcome Chase(const ChaseLimits& limits) {
    program_ = ParseOrDie(R"(
      source R(w, x, y);
      target R2(w, x, y);
      target T(x, z);
      tgd copy: R(w, x, y) -> R2(w, x, y);
      ttgd rt: R2(w, x, y) -> exists z: T(x, z);
    )");
    Universe& u = program_->universe;
    std::vector<Value> xs, ws;
    for (int i = 0; i < kKeys; ++i) {
      xs.push_back(u.Constant("x" + std::to_string(i)));
    }
    for (int i = 0; i < kKeys; ++i) {
      ws.push_back(u.Constant("w" + std::to_string(i)));
    }
    const RelationId r_plus = *program_->schema.Find("R+");
    for (int i = 0; i < kKeys; ++i) {
      for (int j = 0; j < kPerKey; ++j) {
        EXPECT_TRUE(program_->source
                        .Add(r_plus,
                             {ws[kKeys - 1 - i], xs[i],
                              u.Constant("y" + std::to_string(j))},
                             Interval(0, 10))
                        .ok());
      }
    }
    CChaseOptions opts;
    opts.limits = limits;
    auto outcome = CChase(program_->source, program_->lifted, &u, opts);
    EXPECT_TRUE(outcome.ok()) << outcome.status();
    return std::move(outcome).value();
  }

  /// The T+ facts as (x symbol, null id), sorted by x.
  std::vector<std::pair<SymbolId, NullId>> Fired(const CChaseOutcome& o) {
    const RelationId t_plus = *program_->schema.Find("T+");
    std::vector<std::pair<SymbolId, NullId>> out;
    for (const FactView fact : o.target.facts().facts(t_plus)) {
      out.emplace_back(fact.arg(0).symbol(), fact.arg(1).null_id());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::unique_ptr<ParsedProgram> program_;
};

TEST_F(CChaseFireOrderTest, OneFirePerKeyWithNullIdsRisingInKeyOrder) {
  const CChaseOutcome outcome = Chase(ChaseLimits{});
  ASSERT_EQ(outcome.kind, ChaseResultKind::kSuccess);
  // The copy fires once per R fact; rt once per x.
  EXPECT_EQ(outcome.stats.tgd_fires, kCopies + kKeys);
  EXPECT_GT(outcome.stats.tgd_triggers, outcome.stats.tgd_fires);
  const auto fired = Fired(outcome);
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kKeys));
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LT(fired[i - 1].second, fired[i].second) << "x" << i;
  }
}

TEST_F(CChaseFireOrderTest, FireBudgetStopsAfterTheFirstKeysInKeyOrder) {
  for (std::size_t k = 1; k < kKeys; ++k) {
    ChaseLimits limits;
    limits.max_tgd_fires = kCopies + k;
    const CChaseOutcome outcome = Chase(limits);
    ASSERT_EQ(outcome.kind, ChaseResultKind::kAborted) << k;
    EXPECT_EQ(outcome.abort_dimension, ResourceDimension::kTgdFires);
    EXPECT_EQ(outcome.stats.tgd_fires, kCopies + k);
    const auto fired = Fired(outcome);
    ASSERT_EQ(fired.size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(fired[i].first,
                program_->universe.Constant("x" + std::to_string(i)).symbol())
          << "budget " << k;
    }
  }
}

}  // namespace
}  // namespace tdx
