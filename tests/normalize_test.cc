#include "src/core/normalize.h"

#include <gtest/gtest.h>

#include "src/gen/workload.h"
#include "src/temporal/snapshot.h"
#include "tests/test_util.h"

namespace tdx {
namespace {

using ::tdx::testing::HasConcreteFact;
using ::tdx::testing::ParseOrDie;

TEST(RenameTemporalApartTest, EachAtomGetsFreshTemporalVar) {
  // phi+ = R+(x, t) & S+(y, t)  ~~>  phi* = R+(x, t1) & S+(y, t2).
  Schema schema;
  const RelationId r =
      *schema.AddTemporalRelation("R+", {"a"}, SchemaRole::kSource);
  const RelationId s =
      *schema.AddTemporalRelation("S+", {"a"}, SchemaRole::kSource);
  Conjunction phi;
  Atom a1, a2;
  a1.rel = r;
  a1.terms = {Term::Var(0), Term::Var(2)};
  a2.rel = s;
  a2.terms = {Term::Var(1), Term::Var(2)};
  phi.atoms = {a1, a2};
  phi.num_vars = 3;

  const Conjunction star = RenameTemporalApart(phi);
  EXPECT_EQ(star.num_vars, 5u);
  EXPECT_EQ(star.atoms[0].terms.back().var(), 3u);
  EXPECT_EQ(star.atoms[1].terms.back().var(), 4u);
  // Data variables untouched.
  EXPECT_EQ(star.atoms[0].terms[0].var(), 0u);
  EXPECT_EQ(star.atoms[1].terms[0].var(), 1u);
}

class PaperNormalizeTest : public ::testing::Test {
 protected:
  void SetUp() override { program_ = ParseOrDie(testing::kPaperProgram); }
  std::unique_ptr<ParsedProgram> program_;
};

// Figure 5: norm(Ic, lhs(sigma+2)) — Algorithm 1 applied with the tgd
// bodies of the lifted mapping.
TEST_F(PaperNormalizeTest, Figure5SchemaAwareNormalization) {
  NormalizeStats stats;
  const ConcreteInstance normalized =
      Normalize(program_->source, program_->lifted.TgdBodies(), &stats);
  const Universe& u = program_->universe;

  EXPECT_EQ(testing::CountFacts(normalized, "E+"), 5u);
  EXPECT_TRUE(HasConcreteFact(normalized, u, "E+", {"Ada", "IBM"},
                              Interval(2012, 2013)));
  EXPECT_TRUE(HasConcreteFact(normalized, u, "E+", {"Ada", "IBM"},
                              Interval(2013, 2014)));
  EXPECT_TRUE(HasConcreteFact(normalized, u, "E+", {"Ada", "Google"},
                              Interval::FromStart(2014)));
  EXPECT_TRUE(HasConcreteFact(normalized, u, "E+", {"Bob", "IBM"},
                              Interval(2013, 2015)));
  EXPECT_TRUE(HasConcreteFact(normalized, u, "E+", {"Bob", "IBM"},
                              Interval(2015, 2018)));

  EXPECT_EQ(testing::CountFacts(normalized, "S+"), 4u);
  EXPECT_TRUE(HasConcreteFact(normalized, u, "S+", {"Ada", "18k"},
                              Interval(2013, 2014)));
  EXPECT_TRUE(HasConcreteFact(normalized, u, "S+", {"Ada", "18k"},
                              Interval::FromStart(2014)));
  EXPECT_TRUE(HasConcreteFact(normalized, u, "S+", {"Bob", "13k"},
                              Interval(2015, 2018)));
  EXPECT_TRUE(HasConcreteFact(normalized, u, "S+", {"Bob", "13k"},
                              Interval::FromStart(2018)));

  EXPECT_EQ(stats.input_facts, 5u);
  EXPECT_EQ(stats.output_facts, 9u);
  EXPECT_EQ(stats.groups, 2u);  // {Ada's three facts}, {Bob's two facts}
}

// Figure 6: the naive normalizer cuts every fact at every endpoint and
// produces strictly more facts (14 > 9).
TEST_F(PaperNormalizeTest, Figure6NaiveNormalization) {
  NormalizeStats stats;
  const ConcreteInstance normalized =
      NaiveNormalize(program_->source, &stats);
  const Universe& u = program_->universe;

  EXPECT_EQ(testing::CountFacts(normalized, "E+"), 8u);
  EXPECT_EQ(testing::CountFacts(normalized, "S+"), 6u);
  EXPECT_EQ(stats.output_facts, 14u);

  // Spot-check the rows of Figure 6.
  EXPECT_TRUE(HasConcreteFact(normalized, u, "E+", {"Ada", "Google"},
                              Interval(2014, 2015)));
  EXPECT_TRUE(HasConcreteFact(normalized, u, "E+", {"Ada", "Google"},
                              Interval(2015, 2018)));
  EXPECT_TRUE(HasConcreteFact(normalized, u, "E+", {"Ada", "Google"},
                              Interval::FromStart(2018)));
  EXPECT_TRUE(HasConcreteFact(normalized, u, "S+", {"Ada", "18k"},
                              Interval(2013, 2014)));
  EXPECT_TRUE(HasConcreteFact(normalized, u, "S+", {"Ada", "18k"},
                              Interval(2014, 2015)));
  EXPECT_TRUE(HasConcreteFact(normalized, u, "S+", {"Ada", "18k"},
                              Interval(2015, 2018)));
  EXPECT_TRUE(HasConcreteFact(normalized, u, "S+", {"Ada", "18k"},
                              Interval::FromStart(2018)));
}

TEST_F(PaperNormalizeTest, BothNormalizersSatisfyEmptyIntersection) {
  const auto phis = program_->lifted.TgdBodies();
  EXPECT_FALSE(HasEmptyIntersectionProperty(program_->source, phis));
  EXPECT_TRUE(HasEmptyIntersectionProperty(
      Normalize(program_->source, phis), phis));
  EXPECT_TRUE(
      HasEmptyIntersectionProperty(NaiveNormalize(program_->source), phis));
}

TEST_F(PaperNormalizeTest, SchemaAwareNeverLargerThanNaive) {
  const ConcreteInstance byalg =
      Normalize(program_->source, program_->lifted.TgdBodies());
  const ConcreteInstance bynaive = NaiveNormalize(program_->source);
  EXPECT_LE(byalg.size(), bynaive.size());
}

TEST_F(PaperNormalizeTest, NormalizationPreservesSnapshots) {
  const ConcreteInstance normalized =
      Normalize(program_->source, program_->lifted.TgdBodies());
  for (TimePoint l : {2011u, 2012u, 2013u, 2014u, 2015u, 2018u, 2030u}) {
    auto before = SnapshotAt(program_->source, l, &program_->universe);
    auto after = SnapshotAt(normalized, l, &program_->universe);
    ASSERT_TRUE(before.ok());
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*before, *after) << "l=" << l;
  }
}

TEST_F(PaperNormalizeTest, NormalizeIsIdempotent) {
  const auto phis = program_->lifted.TgdBodies();
  const ConcreteInstance once = Normalize(program_->source, phis);
  const ConcreteInstance twice = Normalize(once, phis);
  EXPECT_EQ(once.facts(), twice.facts());
}

// Example 14 / Figures 7-8: three relations, two conjunctions; the two
// groups {f1, f2, f3} (merged via shared f2) and {f4, f5}.
TEST(NormalizeExample14Test, ReproducesFigure8) {
  auto program = ParseOrDie(R"(
    source R(a);
    source P(a);
    source Sx(a);
    target Dummy(a);
    # Two tgds supply the conjunctions phi1 = R(x) & P(y) and
    # phi2 = P(x) & Sx(y); heads are irrelevant to normalization.
    tgd t1: R(x) & P(y) -> Dummy(x);
    tgd t2: P(x) & Sx(y) -> Dummy(x);
    fact R("a")  @ [5, 11);
    fact P("a")  @ [8, 15);
    fact Sx("a") @ [7, 10);
    fact P("b")  @ [20, 25);
    fact Sx("b") @ [18, inf);
  )");
  NormalizeStats stats;
  const ConcreteInstance normalized =
      Normalize(program->source, program->lifted.TgdBodies(), &stats);
  const Universe& u = program->universe;

  // Figure 8, R+: f1 fragments at TP{5,7,8,10,11,15} into 4 pieces.
  EXPECT_EQ(testing::CountFacts(normalized, "R+"), 4u);
  for (const Interval& iv : {Interval(5, 7), Interval(7, 8), Interval(8, 10),
                             Interval(10, 11)}) {
    EXPECT_TRUE(HasConcreteFact(normalized, u, "R+", {"a"}, iv))
        << iv.ToString();
  }
  // Figure 8, P+: f2 -> 3 fragments; f4 -> 2 fragments ([20,25) cut at
  // nothing inside by Delta2's points {18, 20, 25}).
  EXPECT_TRUE(HasConcreteFact(normalized, u, "P+", {"a"}, Interval(8, 10)));
  EXPECT_TRUE(HasConcreteFact(normalized, u, "P+", {"a"}, Interval(10, 11)));
  EXPECT_TRUE(HasConcreteFact(normalized, u, "P+", {"a"}, Interval(11, 15)));
  EXPECT_TRUE(HasConcreteFact(normalized, u, "P+", {"b"}, Interval(20, 25)));
  // Figure 8, Sx+: f3 -> 2 fragments; f5 -> 3 fragments.
  EXPECT_TRUE(HasConcreteFact(normalized, u, "Sx+", {"a"}, Interval(7, 8)));
  EXPECT_TRUE(HasConcreteFact(normalized, u, "Sx+", {"a"}, Interval(8, 10)));
  EXPECT_TRUE(HasConcreteFact(normalized, u, "Sx+", {"b"}, Interval(18, 20)));
  EXPECT_TRUE(HasConcreteFact(normalized, u, "Sx+", {"b"}, Interval(20, 25)));
  EXPECT_TRUE(HasConcreteFact(normalized, u, "Sx+", {"b"},
                              Interval::FromStart(25)));
  EXPECT_EQ(stats.groups, 2u);
}

TEST(NormalizeWorstCaseTest, Theorem13QuadraticGrowth) {
  // With n pairwise-overlapping facts matched by a binary conjunction, the
  // normalized instance has n + 2 * (0 + 1 + ... + n-1) = n^2 fragments.
  for (std::size_t n : {4u, 8u, 16u}) {
    auto w = MakeWorstCaseNormalizationWorkload(n);
    NormalizeStats stats;
    const ConcreteInstance normalized =
        Normalize(w->source, w->lifted.TgdBodies(), &stats);
    EXPECT_EQ(stats.input_facts, n);
    EXPECT_EQ(normalized.size(), n * n) << "n=" << n;
    EXPECT_EQ(stats.groups, 1u);
  }
}

TEST(NormalizeEdgeTest, EmptyInstanceAndNoConjunctions) {
  Schema schema;
  const RelationId r =
      *schema.AddRelationPair("R", {"a"}, SchemaRole::kSource);
  (void)r;
  ConcreteInstance empty(&schema);
  EXPECT_TRUE(Normalize(empty, {}).empty());
  EXPECT_TRUE(NaiveNormalize(empty).empty());
  EXPECT_TRUE(HasEmptyIntersectionProperty(empty, {}));
}

TEST(NormalizeEdgeTest, SingleAtomConjunctionNeverFragments) {
  Universe u;
  Schema schema;
  const RelationId r_plus =
      *schema.AddRelationPair("R", {"a"}, SchemaRole::kSource);
  ConcreteInstance ic(&schema);
  ASSERT_TRUE(ic.Add(r_plus, {u.Constant("x")}, Interval(0, 10)).ok());
  ASSERT_TRUE(ic.Add(r_plus, {u.Constant("y")}, Interval(5, 15)).ok());

  Conjunction phi;  // R+(x, t): one atom — images are singletons.
  Atom atom;
  atom.rel = r_plus;
  atom.terms = {Term::Var(0), Term::Var(1)};
  phi.atoms = {atom};
  phi.num_vars = 2;

  const ConcreteInstance out = Normalize(ic, {phi});
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(HasEmptyIntersectionProperty(ic, {phi}));
}

TEST(NormalizeEdgeTest, FactsSharingAnAnnotatedNullAreCutTogether) {
  // The seed-22 shape: a fragment T(c1, N^[13,14)) beside an uncut
  // T(N^[11,14), M^[11,14)). No conjunction relates the two, but they share
  // N over [13, 14), so the uncut fact must be cut at 13 as well; a third
  // fact carrying N only outside [11, 14) stays whole.
  Universe u;
  Schema schema;
  const RelationId t_plus =
      *schema.AddRelationPair("T", {"a", "b"}, SchemaRole::kTarget);
  const Value n = u.FreshAnnotatedNull(Interval(11, 14));
  const Value m = u.FreshAnnotatedNull(Interval(11, 14));
  ConcreteInstance ic(&schema);
  ASSERT_TRUE(ic.Add(t_plus,
                     {u.Constant("c1"), n.Reannotated(Interval(13, 14))},
                     Interval(13, 14))
                  .ok());
  ASSERT_TRUE(ic.Add(t_plus, {n, m}, Interval(11, 14)).ok());
  ASSERT_TRUE(ic.Add(t_plus,
                     {u.Constant("c2"), n.Reannotated(Interval(20, 22))},
                     Interval(20, 22))
                  .ok());

  for (const bool with_phi : {false, true}) {
    SCOPED_TRACE(with_phi ? "single-atom conjunction" : "no conjunctions");
    Conjunction phi;  // T+(x, y, t): singleton images group nothing.
    Atom atom;
    atom.rel = t_plus;
    atom.terms = {Term::Var(0), Term::Var(1), Term::Var(2)};
    phi.atoms = {atom};
    phi.num_vars = 3;
    std::vector<Conjunction> phis;
    if (with_phi) phis.push_back(phi);

    NormalizeLabels labels;
    const ConcreteInstance out = Normalize(ic, phis, nullptr, nullptr, &labels);
    EXPECT_EQ(out.size(), 4u);
    ConcreteInstance cut(&schema);
    for (const Interval iv : {Interval(11, 13), Interval(13, 14)}) {
      ASSERT_TRUE(
          cut.Add(t_plus, {n.Reannotated(iv), m.Reannotated(iv)}, iv).ok());
    }
    cut.facts().ForEach(
        [&](FactView f) { EXPECT_TRUE(out.facts().Contains(f)); });
    // One component holds the two N facts over [11, 14); the c2 fact is
    // not in it (the single-atom conjunction makes it a component of its
    // own, and without conjunctions it is ungrouped).
    ASSERT_EQ(labels.comp_of.size(), 4u);
    EXPECT_NE(labels.comp_of[0], NormalizeLabels::kUngrouped);
    EXPECT_EQ(labels.comp_of[1], labels.comp_of[0]);
    EXPECT_EQ(labels.comp_of[2], labels.comp_of[0]);
    EXPECT_NE(labels.comp_of[3], labels.comp_of[0]);
  }
}

}  // namespace
}  // namespace tdx
