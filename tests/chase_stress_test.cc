// Stress and edge-case tests for the chase engines: multi-atom heads,
// shared existentials, egd cascades, constants in dependencies, and
// determinism at larger scale.

#include <gtest/gtest.h>

#include "src/core/align.h"
#include "src/core/cchase.h"
#include "src/relational/chase.h"
#include "src/relational/universal.h"
#include "tests/test_util.h"

namespace tdx {
namespace {

using ::tdx::testing::HasConcreteFact;
using ::tdx::testing::ParseOrDie;

Atom MakeAtom(RelationId rel, std::vector<Term> terms) {
  Atom atom;
  atom.rel = rel;
  atom.terms = std::move(terms);
  return atom;
}

// A head with two atoms sharing one existential variable: the fresh null
// must be THE SAME in both facts of one firing, and DIFFERENT across
// firings.
TEST(ChaseStressTest, SharedExistentialAcrossHeadAtoms) {
  Schema schema;
  Universe u;
  const RelationId src = *schema.AddRelation("Src", {"a"}, SchemaRole::kSource);
  const RelationId p =
      *schema.AddRelation("P", {"a", "b"}, SchemaRole::kTarget);
  const RelationId q =
      *schema.AddRelation("Q", {"b", "a"}, SchemaRole::kTarget);
  Tgd tgd;  // Src(x) -> exists y: P(x, y) & Q(y, x)
  tgd.body.atoms = {MakeAtom(src, {Term::Var(0)})};
  tgd.head.atoms = {MakeAtom(p, {Term::Var(0), Term::Var(1)}),
                    MakeAtom(q, {Term::Var(1), Term::Var(0)})};
  tgd.body.num_vars = tgd.head.num_vars = 2;
  ASSERT_TRUE(tgd.Finalize().ok());
  Mapping mapping;
  mapping.st_tgds = {tgd};

  Instance source(&schema);
  source.Insert(src, {u.Constant("a")});
  source.Insert(src, {u.Constant("b")});
  auto outcome = ChaseSnapshot(source, mapping, &u);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->target.facts(p).size(), 2u);
  ASSERT_EQ(outcome->target.facts(q).size(), 2u);

  // Within a firing: same null. Across firings: different nulls.
  std::map<Value, Value> null_of;  // Src constant -> its null
  for (const FactView f : outcome->target.facts(p)) {
    null_of[f.arg(0)] = f.arg(1);
  }
  for (const FactView f : outcome->target.facts(q)) {
    EXPECT_EQ(f.arg(0), null_of.at(f.arg(1)));
  }
  EXPECT_NE(null_of.at(u.Constant("a")), null_of.at(u.Constant("b")));
  EXPECT_EQ(outcome->stats.fresh_nulls, 2u);
}

// Multi-atom heads are the case where the restricted-chase extension check
// must see facts inserted earlier in the same phase (mixed witnesses).
TEST(ChaseStressTest, MultiAtomHeadExtensionCheckStaysExact) {
  Schema schema;
  Universe u;
  const RelationId src =
      *schema.AddRelation("Src", {"a", "b"}, SchemaRole::kSource);
  const RelationId p =
      *schema.AddRelation("P", {"a", "b"}, SchemaRole::kTarget);
  const RelationId r = *schema.AddRelation("Rr", {"a"}, SchemaRole::kTarget);
  // Src(x, z) -> exists y: P(x, y) & Rr(z). Two triggers sharing z produce
  // one Rr fact; the second firing must still happen (different x), and a
  // third trigger with both x and z already witnessed must NOT fire.
  Tgd tgd;
  tgd.body.atoms = {MakeAtom(src, {Term::Var(0), Term::Var(2)})};
  tgd.head.atoms = {MakeAtom(p, {Term::Var(0), Term::Var(1)}),
                    MakeAtom(r, {Term::Var(2)})};
  tgd.body.num_vars = tgd.head.num_vars = 3;
  ASSERT_TRUE(tgd.Finalize().ok());
  Mapping mapping;
  mapping.st_tgds = {tgd};

  Instance source(&schema);
  source.Insert(src, {u.Constant("x1"), u.Constant("z1")});
  source.Insert(src, {u.Constant("x2"), u.Constant("z1")});
  auto outcome = ChaseSnapshot(source, mapping, &u);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->target.facts(p).size(), 2u);
  EXPECT_EQ(outcome->target.facts(r).size(), 1u);
  EXPECT_EQ(outcome->stats.tgd_fires, 2u);
}

// Egd cascade: equating through a chain of nulls down to a constant.
TEST(ChaseStressTest, EgdCascadeResolvesChainsToConstants) {
  auto program = ParseOrDie(R"(
    source L(a, b);
    source V(a, val);
    target Node(a, val);
    target Link(a, b);
    tgd n1: L(a, b) -> exists v: Node(a, v);
    tgd n2: L(a, b) -> exists v: Node(b, v);
    tgd n3: V(a, v) -> Node(a, v);
    tgd n4: L(a, b) -> Link(a, b);
    # Linked nodes share their value.
    egd  e1: Node(a, v) & Node(b, v2) & Link(a, b) -> v = v2;

    fact L("n1", "n2") @ [0, 5);
    fact L("n2", "n3") @ [0, 5);
    fact L("n3", "n4") @ [0, 5);
    fact V("n4", "42") @ [0, 5);
  )");
  auto chase = CChase(program->source, program->lifted, &program->universe);
  ASSERT_TRUE(chase.ok()) << chase.status();
  ASSERT_EQ(chase->kind, ChaseResultKind::kSuccess);
  // The value 42 propagates backwards through the whole chain.
  for (const char* node : {"n1", "n2", "n3", "n4"}) {
    EXPECT_TRUE(HasConcreteFact(chase->target, program->universe, "Node+",
                                {node, "42"}, Interval(0, 5)))
        << node;
  }
}

// Conflicting constants at the far ends of a null chain: failure.
TEST(ChaseStressTest, EgdCascadeDetectsDeepConflict) {
  auto program = ParseOrDie(R"(
    source L(a, b);
    source V(a, val);
    target Node(a, val);
    target Link(a, b);
    tgd L(a, b) -> exists v: Node(a, v);
    tgd L(a, b) -> exists v: Node(b, v);
    tgd V(a, v) -> Node(a, v);
    tgd L(a, b) -> Link(a, b);
    egd Node(a, v) & Node(b, v2) & Link(a, b) -> v = v2;

    fact L("n1", "n2") @ [0, 5);
    fact L("n2", "n3") @ [0, 5);
    fact V("n1", "1") @ [0, 5);
    fact V("n3", "2") @ [0, 5);
  )");
  auto chase = CChase(program->source, program->lifted, &program->universe);
  ASSERT_TRUE(chase.ok());
  EXPECT_EQ(chase->kind, ChaseResultKind::kFailure);
}

// Constants in tgd heads create ground facts.
TEST(ChaseStressTest, ConstantsInHeads) {
  auto program = ParseOrDie(R"(
    source E(name);
    target Tagged(name, tag);
    tgd E(n) -> Tagged(n, "seen");
    fact E("x") @ [1, 3);
  )");
  auto chase = CChase(program->source, program->lifted, &program->universe);
  ASSERT_TRUE(chase.ok());
  EXPECT_TRUE(HasConcreteFact(chase->target, program->universe, "Tagged+",
                              {"x", "seen"}, Interval(1, 3)));
}

// Repeated variables in a body atom act as an equality filter.
TEST(ChaseStressTest, RepeatedBodyVariableFilters) {
  auto program = ParseOrDie(R"(
    source E(a, b);
    target SelfLoop(a);
    tgd E(x, x) -> SelfLoop(x);
    fact E("p", "p") @ [0, 2);
    fact E("p", "q") @ [0, 2);
  )");
  auto chase = CChase(program->source, program->lifted, &program->universe);
  ASSERT_TRUE(chase.ok());
  EXPECT_EQ(chase->target.size(), 1u);
  EXPECT_TRUE(HasConcreteFact(chase->target, program->universe, "SelfLoop+",
                              {"p"}, Interval(0, 2)));
}

// Two egds whose applications enable each other.
TEST(ChaseStressTest, MutuallyEnablingEgds) {
  auto program = ParseOrDie(R"(
    source A(k, x, y);
    target T(k, x, y);
    tgd A(k, x, y) -> T(k, x, y);
    # Keys determine both columns.
    egd T(k, x, y) & T(k, x2, y2) -> x = x2;
    egd T(k, x, y) & T(k, x2, y2) -> y = y2;
    fact A("k", "v", "1") @ [0, 4);
    fact A("k", "v", "1") @ [0, 4);
  )");
  auto chase = CChase(program->source, program->lifted, &program->universe);
  ASSERT_TRUE(chase.ok());
  EXPECT_EQ(chase->kind, ChaseResultKind::kSuccess);

  auto conflicting = ParseOrDie(R"(
    source A(k, x, y);
    target T(k, x, y);
    tgd A(k, x, y) -> T(k, x, y);
    egd T(k, x, y) & T(k, x2, y2) -> x = x2;
    egd T(k, x, y) & T(k, x2, y2) -> y = y2;
    fact A("k", "v", "1") @ [0, 4);
    fact A("k", "v", "2") @ [2, 6);
  )");
  auto bad = CChase(conflicting->source, conflicting->lifted,
                    &conflicting->universe);
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->kind, ChaseResultKind::kFailure);
}

// Determinism at scale: two identical runs produce identical renderings.
TEST(ChaseStressTest, LargeChaseIsDeterministic) {
  const char* text = R"(
    source E(name, company);
    source S(name, salary);
    target Emp(name, company, salary);
    tgd E(n, c) -> exists s: Emp(n, c, s);
    tgd E(n, c) & S(n, s) -> Emp(n, c, s);
    egd Emp(n, c, s) & Emp(n, c, s2) -> s = s2;
    fact E("p1", "c1") @ [0, 7);
    fact E("p1", "c2") @ [7, 20);
    fact E("p2", "c1") @ [3, 12);
    fact E("p3", "c3") @ [1, inf);
    fact S("p1", "10k") @ [2, 9);
    fact S("p2", "11k") @ [0, 30);
    fact S("p3", "12k") @ [5, 6);
  )";
  auto p1 = ParseOrDie(text);
  auto p2 = ParseOrDie(text);
  auto o1 = CChase(p1->source, p1->lifted, &p1->universe);
  auto o2 = CChase(p2->source, p2->lifted, &p2->universe);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  EXPECT_EQ(o1->target.facts().ToString(p1->universe),
            o2->target.facts().ToString(p2->universe));
  EXPECT_EQ(o1->stats.tgd_fires, o2->stats.tgd_fires);
  EXPECT_EQ(o1->stats.egd_steps, o2->stats.egd_steps);
}

// The chase never touches source relations and leaves no junk in them.
TEST(ChaseStressTest, TargetContainsOnlyTargetRelations) {
  auto program = ParseOrDie(testing::kPaperProgram);
  auto chase = CChase(program->source, program->lifted, &program->universe);
  ASSERT_TRUE(chase.ok());
  chase->target.facts().ForEach([&](FactView f) {
    EXPECT_EQ(program->schema.relation(f.relation()).role,
              SchemaRole::kTarget);
  });
}

// Stats plausibility on the merging program.
TEST(ChaseStressTest, StatsAccounting) {
  auto program = ParseOrDie(testing::kMergingProgram);
  auto chase = CChase(program->source, program->lifted, &program->universe);
  ASSERT_TRUE(chase.ok());
  ASSERT_EQ(chase->kind, ChaseResultKind::kSuccess);
  // m1 fires once per normalized E fact (3), m2 once per S fact (2), and
  // each fire mints one null.
  EXPECT_EQ(chase->stats.tgd_fires, 5u);
  EXPECT_EQ(chase->stats.fresh_nulls, 5u);
  // Where a job and a salary overlap, k1 equates the salary side's company
  // null with the job's company and k2 the job side's salary null with the
  // salary: Ada over [2013, 2014) and [2014, inf), Bob over [2015, 2018).
  EXPECT_EQ(chase->stats.egd_steps, 6u);
  EXPECT_EQ(chase->stats.values_rewritten, 6u);
}

// Determinism under abort: because tgds fire in a fixed order with
// triggers in canonical order, a budget only decides WHERE a run stops, not
// WHAT it computes. Aborting at any budget and rerunning from a fresh parse
// with a sufficient budget must reproduce the unbudgeted solution exactly.
TEST(ChaseStressTest, AbortThenRerunWithLargerBudgetIsIdentical) {
  const char* text = R"(
    source E(name, company);
    source S(name, salary);
    target Emp(name, company, salary);
    tgd E(n, c) -> exists s: Emp(n, c, s);
    tgd E(n, c) & S(n, s) -> Emp(n, c, s);
    egd Emp(n, c, s) & Emp(n, c, s2) -> s = s2;
    fact E("p1", "c1") @ [0, 7);
    fact E("p1", "c2") @ [7, 20);
    fact E("p2", "c1") @ [3, 12);
    fact E("p3", "c3") @ [1, inf);
    fact S("p1", "10k") @ [2, 9);
    fact S("p2", "11k") @ [0, 30);
    fact S("p3", "12k") @ [5, 6);
  )";
  // Ground truth: the unbudgeted run.
  auto full = ParseOrDie(text);
  auto full_outcome = CChase(full->source, full->lifted, &full->universe);
  ASSERT_TRUE(full_outcome.ok());
  ASSERT_EQ(full_outcome->kind, ChaseResultKind::kSuccess);
  const std::string want =
      full_outcome->target.facts().ToString(full->universe);

  // Abort at a sweep of budgets: each run must come back kAborted (the
  // budgets are all below the real cost) without crashing or hanging.
  for (std::size_t budget = 1; budget <= 5; ++budget) {
    auto p = ParseOrDie(text);
    CChaseOptions options;
    options.limits.max_tgd_fires = budget;
    auto aborted = CChase(p->source, p->lifted, &p->universe, options);
    ASSERT_TRUE(aborted.ok());
    EXPECT_EQ(aborted->kind, ChaseResultKind::kAborted);
    EXPECT_EQ(aborted->abort_dimension, ResourceDimension::kTgdFires);
    EXPECT_EQ(aborted->stats.tgd_fires, budget);
  }

  // A fresh parse with a sufficient budget reproduces the exact solution.
  auto rerun = ParseOrDie(text);
  CChaseOptions options;
  options.limits.max_tgd_fires = full_outcome->stats.tgd_fires;
  options.limits.max_egd_steps = full_outcome->stats.egd_steps;
  options.limits.max_fresh_nulls = full_outcome->stats.fresh_nulls;
  auto governed = CChase(rerun->source, rerun->lifted, &rerun->universe,
                         options);
  ASSERT_TRUE(governed.ok());
  ASSERT_EQ(governed->kind, ChaseResultKind::kSuccess);
  EXPECT_EQ(governed->target.facts().ToString(rerun->universe), want);
  EXPECT_EQ(governed->stats.tgd_fires, full_outcome->stats.tgd_fires);
  EXPECT_EQ(governed->stats.egd_steps, full_outcome->stats.egd_steps);
}

}  // namespace
}  // namespace tdx
