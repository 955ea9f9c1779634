#include "src/relational/chase.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/relational/universal.h"

namespace tdx {
namespace {

// The paper's Example 1 mapping over snapshot relations:
//   sigma1: E(n, c) -> exists s: Emp(n, c, s)
//   sigma2: E(n, c) & S(n, s) -> Emp(n, c, s)
//   e1:     Emp(n, c, s) & Emp(n, c, s2) -> s = s2
class ChaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    e_ = *schema_.AddRelation("E", {"name", "company"}, SchemaRole::kSource);
    s_ = *schema_.AddRelation("S", {"name", "salary"}, SchemaRole::kSource);
    emp_ = *schema_.AddRelation("Emp", {"name", "company", "salary"},
                                SchemaRole::kTarget);

    Tgd sigma1;
    sigma1.label = "sigma1";
    sigma1.body.atoms = {MakeAtom(e_, {Term::Var(0), Term::Var(1)})};
    sigma1.head.atoms = {
        MakeAtom(emp_, {Term::Var(0), Term::Var(1), Term::Var(2)})};
    sigma1.body.num_vars = sigma1.head.num_vars = 3;
    ASSERT_TRUE(sigma1.Finalize().ok());

    Tgd sigma2;
    sigma2.label = "sigma2";
    sigma2.body.atoms = {MakeAtom(e_, {Term::Var(0), Term::Var(1)}),
                         MakeAtom(s_, {Term::Var(0), Term::Var(2)})};
    sigma2.head.atoms = {
        MakeAtom(emp_, {Term::Var(0), Term::Var(1), Term::Var(2)})};
    sigma2.body.num_vars = sigma2.head.num_vars = 3;
    ASSERT_TRUE(sigma2.Finalize().ok());

    Egd e1;
    e1.label = "e1";
    e1.body.atoms = {MakeAtom(emp_, {Term::Var(0), Term::Var(1), Term::Var(2)}),
                     MakeAtom(emp_, {Term::Var(0), Term::Var(1), Term::Var(3)})};
    e1.body.num_vars = 4;
    e1.x1 = 2;
    e1.x2 = 3;
    ASSERT_TRUE(e1.Finalize().ok());

    mapping_.st_tgds = {std::move(sigma1), std::move(sigma2)};
    mapping_.egds = {std::move(e1)};
    ASSERT_TRUE(ValidateMapping(mapping_, schema_).ok());
  }

  Atom MakeAtom(RelationId rel, std::vector<Term> terms) {
    Atom atom;
    atom.rel = rel;
    atom.terms = std::move(terms);
    return atom;
  }

  Universe u_;
  Schema schema_;
  Mapping mapping_;
  RelationId e_ = 0, s_ = 0, emp_ = 0;
};

TEST_F(ChaseTest, KnownSalaryProducesCompleteFact) {
  // Figure 1, snapshot 2013 for Ada: E(Ada, IBM), S(Ada, 18k).
  Instance source(&schema_);
  source.Insert(e_, {u_.Constant("Ada"), u_.Constant("IBM")});
  source.Insert(s_, {u_.Constant("Ada"), u_.Constant("18k")});

  auto outcome = ChaseSnapshot(source, mapping_, &u_);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, ChaseResultKind::kSuccess);
  EXPECT_TRUE(outcome->target.Contains(Fact(
      emp_, {u_.Constant("Ada"), u_.Constant("IBM"), u_.Constant("18k")})));
  // sigma2's complete fact witnesses sigma1's trigger: exactly one fact.
  EXPECT_EQ(outcome->target.size(), 1u);
}

TEST_F(ChaseTest, UnknownSalaryProducesNull) {
  // Figure 1, snapshot 2013 for Bob: E(Bob, IBM), no salary.
  Instance source(&schema_);
  source.Insert(e_, {u_.Constant("Bob"), u_.Constant("IBM")});

  auto outcome = ChaseSnapshot(source, mapping_, &u_);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, ChaseResultKind::kSuccess);
  ASSERT_EQ(outcome->target.facts(emp_).size(), 1u);
  const FactView fact = outcome->target.facts(emp_)[0];
  EXPECT_EQ(fact.arg(0), u_.Constant("Bob"));
  EXPECT_EQ(fact.arg(1), u_.Constant("IBM"));
  EXPECT_TRUE(fact.arg(2).is_null());
}

TEST_F(ChaseTest, EgdFailureOnConflictingConstants) {
  Instance source(&schema_);
  source.Insert(e_, {u_.Constant("Ada"), u_.Constant("IBM")});
  source.Insert(s_, {u_.Constant("Ada"), u_.Constant("18k")});
  source.Insert(s_, {u_.Constant("Ada"), u_.Constant("20k")});

  auto outcome = ChaseSnapshot(source, mapping_, &u_);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, ChaseResultKind::kFailure);
  EXPECT_FALSE(outcome->failure_reason.empty());
}

TEST_F(ChaseTest, EmptySourceProducesEmptyTarget) {
  Instance source(&schema_);
  auto outcome = ChaseSnapshot(source, mapping_, &u_);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, ChaseResultKind::kSuccess);
  EXPECT_TRUE(outcome->target.empty());
}

TEST_F(ChaseTest, RestrictedChaseSkipsWitnessedTriggers) {
  // With both sigma2 and sigma1 applicable, firing order matters only for
  // economy. The full rule sigma2 fires first (ChaseRun::Begin puts full
  // st-tgds before existential ones), so its complete fact witnesses
  // sigma1's trigger: no null is minted and the egd has nothing to merge.
  // The target is the single complete fact.
  Instance source(&schema_);
  source.Insert(e_, {u_.Constant("Ada"), u_.Constant("IBM")});
  source.Insert(s_, {u_.Constant("Ada"), u_.Constant("18k")});
  auto outcome = ChaseSnapshot(source, mapping_, &u_);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->stats.fresh_nulls, 0u);
  EXPECT_EQ(outcome->stats.egd_steps, 0u);
  EXPECT_EQ(outcome->target.size(), 1u);
}

TEST_F(ChaseTest, TriggersDedupedByHeadValues) {
  // Two S facts with the same salary for the same person yield the same
  // head image; the trigger fires once.
  Instance source(&schema_);
  source.Insert(e_, {u_.Constant("Ada"), u_.Constant("IBM")});
  source.Insert(s_, {u_.Constant("Ada"), u_.Constant("18k")});
  auto outcome = ChaseSnapshot(source, mapping_, &u_);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->target.facts(emp_).size(), 1u);
}

TEST_F(ChaseTest, ResultIsUniversalAmongHandBuiltSolutions) {
  Instance source(&schema_);
  source.Insert(e_, {u_.Constant("Ada"), u_.Constant("IBM")});
  source.Insert(e_, {u_.Constant("Bob"), u_.Constant("IBM")});
  source.Insert(s_, {u_.Constant("Ada"), u_.Constant("18k")});
  auto outcome = ChaseSnapshot(source, mapping_, &u_);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->kind, ChaseResultKind::kSuccess);

  // A solution instantiating Bob's unknown salary with a constant.
  Instance solution1(&schema_);
  solution1.Insert(emp_, {u_.Constant("Ada"), u_.Constant("IBM"),
                          u_.Constant("18k")});
  solution1.Insert(emp_, {u_.Constant("Bob"), u_.Constant("IBM"),
                          u_.Constant("55k")});
  EXPECT_TRUE(
      FindInstanceHomomorphism(outcome->target, solution1).has_value());

  // A solution with extra facts is still a solution; hom must exist.
  Instance solution2 = solution1;
  solution2.Insert(emp_, {u_.Constant("Eve"), u_.Constant("ACME"),
                          u_.Constant("1k")});
  EXPECT_TRUE(
      FindInstanceHomomorphism(outcome->target, solution2).has_value());

  // A non-solution (wrong salary for Ada) admits no homomorphism, since
  // 18k is a constant in the chase result.
  Instance non_solution(&schema_);
  non_solution.Insert(emp_, {u_.Constant("Ada"), u_.Constant("IBM"),
                             u_.Constant("99k")});
  non_solution.Insert(emp_, {u_.Constant("Bob"), u_.Constant("IBM"),
                             u_.Constant("55k")});
  EXPECT_FALSE(
      FindInstanceHomomorphism(outcome->target, non_solution).has_value());
}

TEST_F(ChaseTest, EgdMergesTwoNulls) {
  // Schema P(a), target Q(a, b) with tgd P(x) -> exists y: Q(x, y) twice
  // via two tgds, then an egd forcing the two nulls equal.
  Schema schema;
  const RelationId p = *schema.AddRelation("P", {"a"}, SchemaRole::kSource);
  const RelationId q =
      *schema.AddRelation("Q", {"a", "b"}, SchemaRole::kTarget);
  const RelationId r =
      *schema.AddRelation("Rr", {"a", "b"}, SchemaRole::kTarget);

  auto atom = [](RelationId rel, std::vector<Term> terms) {
    Atom a;
    a.rel = rel;
    a.terms = std::move(terms);
    return a;
  };

  Tgd t1;
  t1.body.atoms = {atom(p, {Term::Var(0)})};
  t1.head.atoms = {atom(q, {Term::Var(0), Term::Var(1)})};
  t1.body.num_vars = t1.head.num_vars = 2;
  ASSERT_TRUE(t1.Finalize().ok());
  Tgd t2;
  t2.body.atoms = {atom(p, {Term::Var(0)})};
  t2.head.atoms = {atom(r, {Term::Var(0), Term::Var(1)})};
  t2.body.num_vars = t2.head.num_vars = 2;
  ASSERT_TRUE(t2.Finalize().ok());

  Egd egd;  // Q(x, y) & Rr(x, z) -> y = z
  egd.body.atoms = {atom(q, {Term::Var(0), Term::Var(1)}),
                    atom(r, {Term::Var(0), Term::Var(2)})};
  egd.body.num_vars = 3;
  egd.x1 = 1;
  egd.x2 = 2;
  ASSERT_TRUE(egd.Finalize().ok());

  Mapping mapping;
  mapping.st_tgds = {t1, t2};
  mapping.egds = {egd};

  Universe u;
  Instance source(&schema);
  source.Insert(p, {u.Constant("a")});
  auto outcome = ChaseSnapshot(source, mapping, &u);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->kind, ChaseResultKind::kSuccess);
  ASSERT_EQ(outcome->target.facts(q).size(), 1u);
  ASSERT_EQ(outcome->target.facts(r).size(), 1u);
  // After the egd, both facts carry the same null.
  EXPECT_EQ(outcome->target.facts(q)[0].arg(1),
            outcome->target.facts(r)[0].arg(1));
  EXPECT_EQ(outcome->stats.egd_steps, 1u);
}

// The canonical fire order belongs to the restricted chase, not to the
// container its triggers are kept in: a rule's triggers fire in ascending
// order of their head-visible universal values (Value's canonical order),
// one per value, whatever order the source facts were inserted in.
class ChaseFireOrderTest : public ::testing::Test {
 protected:
  static constexpr int kKeys = 5;
  static constexpr int kPerKey = 3;

  void SetUp() override {
    r_ = *schema_.AddRelation("R", {"x", "y"}, SchemaRole::kSource);
    t_ = *schema_.AddRelation("T", {"x", "z"}, SchemaRole::kTarget);
    Tgd tgd;  // R(x, y) -> exists z: T(x, z)
    tgd.label = "rt";
    tgd.body.atoms = {Atom{r_, {Term::Var(0), Term::Var(1)}}};
    tgd.head.atoms = {Atom{t_, {Term::Var(0), Term::Var(2)}}};
    tgd.body.num_vars = tgd.head.num_vars = 3;
    ASSERT_TRUE(tgd.Finalize().ok());
    mapping_.st_tgds = {std::move(tgd)};
    ASSERT_TRUE(ValidateMapping(mapping_, schema_).ok());
  }

  /// Chases under `limits` in a fresh universe that interns the x values
  /// in ascending order, so key order is x0 < x1 < ...; the source facts
  /// are inserted in descending x order, several y per x.
  ChaseOutcome Chase(const ChaseLimits& limits, Universe* u) {
    std::vector<Value> xs;
    for (int i = 0; i < kKeys; ++i) {
      xs.push_back(u->Constant("x" + std::to_string(i)));
    }
    Instance source(&schema_);
    for (int i = kKeys - 1; i >= 0; --i) {
      for (int j = 0; j < kPerKey; ++j) {
        source.Insert(r_, {xs[i], u->Constant("y" + std::to_string(j))});
      }
    }
    auto outcome = ChaseSnapshot(source, mapping_, u, {.limits = limits});
    EXPECT_TRUE(outcome.ok()) << outcome.status();
    return std::move(outcome).value();
  }

  /// The T facts as (x symbol, null id), sorted by x.
  std::vector<std::pair<SymbolId, NullId>> Fired(const Instance& target) {
    std::vector<std::pair<SymbolId, NullId>> out;
    for (const FactView fact : target.facts(t_)) {
      out.emplace_back(fact.arg(0).symbol(), fact.arg(1).null_id());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  Schema schema_;
  Mapping mapping_;
  RelationId r_ = 0, t_ = 0;
};

TEST_F(ChaseFireOrderTest, OneFirePerKeyWithNullIdsRisingInKeyOrder) {
  Universe u;
  const ChaseOutcome outcome = Chase(ChaseLimits{}, &u);
  ASSERT_EQ(outcome.kind, ChaseResultKind::kSuccess);
  EXPECT_EQ(outcome.stats.tgd_triggers,
            static_cast<std::size_t>(kKeys * kPerKey));
  EXPECT_EQ(outcome.stats.tgd_fires, static_cast<std::size_t>(kKeys));
  EXPECT_GT(outcome.stats.tgd_triggers, outcome.stats.tgd_fires);
  const auto fired = Fired(outcome.target);
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kKeys));
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LT(fired[i - 1].second, fired[i].second) << "x" << i;
  }
}

TEST_F(ChaseFireOrderTest, FireBudgetStopsAfterTheFirstKeysInKeyOrder) {
  for (std::size_t k = 1; k < kKeys; ++k) {
    Universe u;
    ChaseLimits limits;
    limits.max_tgd_fires = k;
    const ChaseOutcome outcome = Chase(limits, &u);
    ASSERT_EQ(outcome.kind, ChaseResultKind::kAborted) << k;
    EXPECT_EQ(outcome.abort_dimension, ResourceDimension::kTgdFires);
    EXPECT_EQ(outcome.stats.tgd_fires, k);
    const auto fired = Fired(outcome.target);
    ASSERT_EQ(fired.size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(fired[i].first,
                u.Constant("x" + std::to_string(i)).symbol())
          << "budget " << k;
    }
  }
}

}  // namespace
}  // namespace tdx
