#include "src/temporal/abstract_chase.h"

#include <gtest/gtest.h>

#include "src/gen/workload.h"
#include "src/relational/universal.h"

namespace tdx {
namespace {

std::unique_ptr<Workload> PaperWorkload() {
  // Rebuild Figure 4 exactly via the employment setting.
  auto w = MakeEmploymentWorkload(
      EmploymentConfig{.num_people = 0, .num_companies = 0, .avg_jobs = 0,
                       .horizon = 1, .salary_known_fraction = 0.0,
                       .inject_conflict = false, .seed = 0});
  auto add = [&](const char* rel, std::vector<const char*> data,
                 const Interval& iv) {
    std::vector<Value> values;
    for (const char* d : data) values.push_back(w->universe.Constant(d));
    const RelationId id = *w->schema.Find(rel);
    ASSERT_TRUE(w->source.Add(id, std::move(values), iv).ok());
  };
  add("E+", {"Ada", "IBM"}, Interval(2012, 2014));
  add("E+", {"Ada", "Google"}, Interval::FromStart(2014));
  add("E+", {"Bob", "IBM"}, Interval(2013, 2018));
  add("S+", {"Ada", "18k"}, Interval::FromStart(2013));
  add("S+", {"Bob", "13k"}, Interval::FromStart(2015));
  return w;
}

TEST(AbstractChaseTest, PaperExample5PerSnapshotResults) {
  auto w = PaperWorkload();
  auto ia = AbstractInstance::FromConcrete(w->source);
  ASSERT_TRUE(ia.ok());
  auto outcome = AbstractChase(*ia, w->mapping, &w->universe);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_EQ(outcome->kind, ChaseResultKind::kSuccess);
  ASSERT_TRUE(outcome->target.ValidateCover().ok());

  const RelationId emp = *w->schema.Find("Emp");
  Universe& u = w->universe;

  // Figure 3, year 2012: { Emp(Ada, IBM, N) }.
  {
    const Instance db = outcome->target.At(2012, &u);
    ASSERT_EQ(db.facts(emp).size(), 1u);
    const FactView f = db.facts(emp)[0];
    EXPECT_EQ(f.arg(0), u.Constant("Ada"));
    EXPECT_EQ(f.arg(1), u.Constant("IBM"));
    EXPECT_TRUE(f.arg(2).is_null());
  }
  // Figure 3, year 2013: { Emp(Ada, IBM, 18k), Emp(Bob, IBM, N') }.
  {
    const Instance db = outcome->target.At(2013, &u);
    EXPECT_EQ(db.facts(emp).size(), 2u);
    EXPECT_TRUE(db.Contains(Fact(
        emp, {u.Constant("Ada"), u.Constant("IBM"), u.Constant("18k")})));
  }
  // Figure 3, year 2015: { Emp(Ada, Google, 18k), Emp(Bob, IBM, 13k) }.
  {
    const Instance db = outcome->target.At(2015, &u);
    EXPECT_EQ(db.facts(emp).size(), 2u);
    EXPECT_TRUE(db.Contains(Fact(
        emp, {u.Constant("Ada"), u.Constant("Google"), u.Constant("18k")})));
    EXPECT_TRUE(db.Contains(Fact(
        emp, {u.Constant("Bob"), u.Constant("IBM"), u.Constant("13k")})));
  }
  // Figure 3, year 2018: { Emp(Ada, Google, 18k) } — Bob's employment
  // ended; his dangling salary fact generates nothing.
  {
    const Instance db = outcome->target.At(2018, &u);
    EXPECT_EQ(db.facts(emp).size(), 1u);
    EXPECT_TRUE(db.Contains(Fact(
        emp, {u.Constant("Ada"), u.Constant("Google"), u.Constant("18k")})));
  }
}

TEST(AbstractChaseTest, NullsDifferAcrossSnapshots) {
  // Section 3: fresh nulls produced in one snapshot are distinct from those
  // in every other snapshot — Bob's unknown salary in 2013 and 2014.
  auto w = PaperWorkload();
  auto ia = AbstractInstance::FromConcrete(w->source);
  ASSERT_TRUE(ia.ok());
  auto outcome = AbstractChase(*ia, w->mapping, &w->universe);
  ASSERT_TRUE(outcome.ok());
  const RelationId emp = *w->schema.Find("Emp");
  Universe& u = w->universe;
  auto bob_salary = [&](TimePoint l) {
    const Instance db = outcome->target.At(l, &u);
    for (const FactView f : db.facts(emp)) {
      if (f.arg(0) == u.Constant("Bob")) return f.arg(2);
    }
    return Value();
  };
  const Value n2013 = bob_salary(2013);
  const Value n2014 = bob_salary(2014);
  ASSERT_TRUE(n2013.is_null());
  ASSERT_TRUE(n2014.is_null());
  EXPECT_NE(n2013, n2014);
}

TEST(AbstractChaseTest, AgreesWithGroundTruthSnapshotChase) {
  auto w = PaperWorkload();
  auto ia = AbstractInstance::FromConcrete(w->source);
  ASSERT_TRUE(ia.ok());
  auto compact = AbstractChase(*ia, w->mapping, &w->universe);
  ASSERT_TRUE(compact.ok());
  for (TimePoint l : {2011u, 2012u, 2013u, 2014u, 2016u, 2018u, 2025u}) {
    auto ground = ChaseSnapshotAt(*ia, l, w->mapping, &w->universe);
    ASSERT_TRUE(ground.ok());
    ASSERT_EQ(ground->kind, ChaseResultKind::kSuccess);
    const Instance compact_at = compact->target.At(l, &w->universe);
    EXPECT_TRUE(AreHomomorphicallyEquivalent(ground->target, compact_at))
        << "snapshot " << l;
  }
}

TEST(AbstractChaseTest, StatsSumThePieceChases) {
  // The aggregate work record is the sum of the per-piece snapshot chases.
  auto w = PaperWorkload();
  auto ia = AbstractInstance::FromConcrete(w->source);
  ASSERT_TRUE(ia.ok());
  ChaseStats pieces;
  for (const AbstractPiece& piece : ia->pieces()) {
    Universe scratch;
    auto chased = ChaseSnapshot(piece.snapshot, w->mapping, &scratch);
    ASSERT_TRUE(chased.ok()) << chased.status();
    pieces.tgd_fires += chased->stats.tgd_fires;
    pieces.fresh_nulls += chased->stats.fresh_nulls;
    pieces.facts_inserted += chased->stats.facts_inserted;
  }
  ASSERT_GT(pieces.facts_inserted, 0u);
  auto outcome = AbstractChase(*ia, w->mapping, &w->universe);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_EQ(outcome->kind, ChaseResultKind::kSuccess);
  EXPECT_EQ(outcome->stats.tgd_fires, pieces.tgd_fires);
  EXPECT_EQ(outcome->stats.fresh_nulls, pieces.fresh_nulls);
  EXPECT_EQ(outcome->stats.facts_inserted, pieces.facts_inserted);
}

TEST(AbstractChaseTest, FailurePropagatesWithSpan) {
  auto w = PaperWorkload();
  // Conflicting salary for Ada during [2013, 2014): chase of those
  // snapshots fails.
  const RelationId s_plus = *w->schema.Find("S+");
  ASSERT_TRUE(w->source
                  .Add(s_plus, {w->universe.Constant("Ada"),
                                w->universe.Constant("99k")},
                       Interval(2013, 2014))
                  .ok());
  auto ia = AbstractInstance::FromConcrete(w->source);
  ASSERT_TRUE(ia.ok());
  auto outcome = AbstractChase(*ia, w->mapping, &w->universe);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, ChaseResultKind::kFailure);
  ASSERT_TRUE(outcome->failure_span.has_value());
  EXPECT_EQ(*outcome->failure_span, Interval(2013, 2014));
}

TEST(AbstractChaseTest, RejectsIncompleteSource) {
  auto w = PaperWorkload();
  AbstractInstance ia(&w->schema);
  Instance snapshot(&w->schema);
  const RelationId e = *w->schema.Find("E");
  snapshot.Insert(e, {w->universe.Constant("Ada"), w->universe.FreshNull()});
  ia.AddPiece(Interval::FromStart(0), std::move(snapshot));
  EXPECT_FALSE(AbstractChase(ia, w->mapping, &w->universe).ok());
}

TEST(AbstractChaseTest, EmptySourceChasesToEmpty) {
  auto w = PaperWorkload();
  ConcreteInstance empty(&w->schema);
  auto ia = AbstractInstance::FromConcrete(empty);
  ASSERT_TRUE(ia.ok());
  auto outcome = AbstractChase(*ia, w->mapping, &w->universe);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, ChaseResultKind::kSuccess);
  for (const AbstractPiece& piece : outcome->target.pieces()) {
    EXPECT_TRUE(piece.snapshot.empty());
  }
}

}  // namespace
}  // namespace tdx
