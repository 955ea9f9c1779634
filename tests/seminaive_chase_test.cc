// Semi-naive chase equivalence: the delta-driven engine must produce
// EXACTLY the same run as the naive oracle — same trigger firings, same
// fresh-null sequence, same egd merges, same target instance. The argument
// (chase.h): a trigger over wholly-old facts was already enumerated the
// round its newest fact arrived, and witnesses never disappear during
// tgd-only rounds, so old triggers never re-fire; per-round firing order is
// the canonical key order either way.

#include <gtest/gtest.h>

#include <memory>

#include "src/core/cchase.h"
#include "src/gen/workload.h"
#include "src/relational/chase.h"
#include "src/temporal/abstract_instance.h"
#include "src/temporal/snapshot.h"
#include "tests/test_util.h"

namespace tdx {
namespace {

ChaseOptions Mode(bool semi_naive) {
  ChaseOptions options;
  options.semi_naive = semi_naive;
  return options;
}

/// Chases every probe-point snapshot of `w`'s source in the given mode.
/// Workloads generated from one seed are identical, so runs on two copies
/// share every interned id and the outcomes must be bit-for-bit comparable.
struct ModeRun {
  std::vector<ChaseOutcome> outcomes;
};

ModeRun ChaseAllSnapshots(Workload* w, bool semi_naive) {
  ModeRun run;
  std::vector<TimePoint> points = w->source.Endpoints();
  points.push_back(w->source.StabilizationPoint() + 2);
  points.push_back(0);
  for (TimePoint l : points) {
    auto snapshot = SnapshotAt(w->source, l, &w->universe);
    EXPECT_TRUE(snapshot.ok());
    auto outcome =
        ChaseSnapshot(*snapshot, w->mapping, &w->universe, Mode(semi_naive));
    EXPECT_TRUE(outcome.ok()) << outcome.status();
    run.outcomes.push_back(std::move(*outcome));
  }
  return run;
}

void ExpectIdenticalRuns(const ModeRun& semi, const ModeRun& naive) {
  ASSERT_EQ(semi.outcomes.size(), naive.outcomes.size());
  for (std::size_t i = 0; i < semi.outcomes.size(); ++i) {
    const ChaseOutcome& a = semi.outcomes[i];
    const ChaseOutcome& b = naive.outcomes[i];
    EXPECT_EQ(a.kind, b.kind) << "snapshot " << i;
    EXPECT_EQ(a.stats.tgd_fires, b.stats.tgd_fires) << "snapshot " << i;
    EXPECT_EQ(a.stats.fresh_nulls, b.stats.fresh_nulls) << "snapshot " << i;
    EXPECT_EQ(a.stats.egd_steps, b.stats.egd_steps) << "snapshot " << i;
    EXPECT_TRUE(a.target == b.target) << "snapshot " << i;
  }
}

class SemiNaiveSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SemiNaiveSweep, MatchesNaiveOnRandomMappings) {
  // Two identical workloads (same seed): identical universes, so both modes
  // mint identical null ids and the targets compare EQUAL, not just
  // isomorphic.
  RandomMappingConfig cfg;
  cfg.seed = GetParam();
  auto w_semi = MakeRandomMappingWorkload(cfg);
  auto w_naive = MakeRandomMappingWorkload(cfg);
  ExpectIdenticalRuns(ChaseAllSnapshots(w_semi.get(), true),
                      ChaseAllSnapshots(w_naive.get(), false));
}

TEST_P(SemiNaiveSweep, MatchesNaiveOnFlightCascades) {
  // The reachability ttgd chases to a transitive-closure fixpoint: many
  // rounds, so the delta frontier actually prunes (the random-mapping sweep
  // has no target tgds).
  FlightConfig cfg;
  cfg.num_airports = 8;
  cfg.num_flights = 16;
  cfg.seed = GetParam();
  auto w_semi = MakeFlightWorkload(cfg);
  auto w_naive = MakeFlightWorkload(cfg);
  ExpectIdenticalRuns(ChaseAllSnapshots(w_semi.get(), true),
                      ChaseAllSnapshots(w_naive.get(), false));
}

TEST_P(SemiNaiveSweep, MatchesNaiveInsideCChase) {
  FlightConfig cfg;
  cfg.num_airports = 6;
  cfg.num_flights = 12;
  cfg.seed = GetParam();
  auto w_semi = MakeFlightWorkload(cfg);
  auto w_naive = MakeFlightWorkload(cfg);
  CChaseOptions semi, naive;
  naive.semi_naive = false;
  auto a = CChase(w_semi->source, w_semi->lifted, &w_semi->universe, semi);
  auto b = CChase(w_naive->source, w_naive->lifted, &w_naive->universe, naive);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->kind, b->kind);
  EXPECT_EQ(a->stats.tgd_fires, b->stats.tgd_fires);
  EXPECT_EQ(a->stats.fresh_nulls, b->stats.fresh_nulls);
  EXPECT_EQ(a->stats.egd_steps, b->stats.egd_steps);
  EXPECT_TRUE(a->target.facts() == b->target.facts());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemiNaiveSweep,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------------------------------
// Delta-frontier unit tests on a hand-built multi-round cascade.
// ---------------------------------------------------------------------------

class CascadeFixture : public ::testing::Test {
 protected:
  // Source A(x, y); the target tgds halve paths level by level:
  //   Li(x, y) -> exists m: Li+1(x, m) & Li+1(m, y)
  // Weakly acyclic (levels strictly increase), runs one target-tgd round
  // per level, and every head is MULTI-ATOM with an existential — the case
  // where the old engine had to rebuild its witness finder after every
  // insert (a head can become witnessed by MIXED combinations of old and
  // new facts); the incremental finder must reproduce that behavior.
  void SetUp() override {
    a_ = *schema_.AddRelation("A", {"x", "y"}, SchemaRole::kSource);
    for (int i = 0; i < 4; ++i) {
      levels_[i] = *schema_.AddRelation("L" + std::to_string(i), {"x", "y"},
                                        SchemaRole::kTarget);
    }
    {  // A(x, y) -> L0(x, y)
      Tgd st;
      st.label = "copy";
      st.body.atoms.push_back({a_, {Term::Var(0), Term::Var(1)}});
      st.body.num_vars = 2;
      st.head.atoms.push_back({levels_[0], {Term::Var(0), Term::Var(1)}});
      ASSERT_TRUE(st.Finalize().ok());
      mapping_.st_tgds.push_back(st);
    }
    for (int i = 0; i < 3; ++i) {
      // Li(x, y) -> exists m: Li+1(x, m) & Li+1(m, y)
      Tgd t;
      t.label = "split" + std::to_string(i);
      t.body.atoms.push_back({levels_[i], {Term::Var(0), Term::Var(1)}});
      t.body.num_vars = 3;
      t.head.atoms.push_back({levels_[i + 1], {Term::Var(0), Term::Var(2)}});
      t.head.atoms.push_back({levels_[i + 1], {Term::Var(2), Term::Var(1)}});
      ASSERT_TRUE(t.Finalize().ok());
      mapping_.target_tgds.push_back(t);
    }
  }

  Universe u_;
  Schema schema_;
  Mapping mapping_;
  RelationId a_ = 0;
  RelationId levels_[4] = {0, 0, 0, 0};
};

TEST_F(CascadeFixture, MultiAtomHeadCascadeMatchesNaive) {
  // Two universes so null ids line up exactly between the modes.
  Universe u_semi, u_naive;
  Instance source(&schema_);
  for (int i = 0; i < 4; ++i) {
    source.Insert(a_, {u_semi.Constant("n" + std::to_string(i)),
                       u_semi.Constant("n" + std::to_string(i + 1))});
  }
  // Mirror the constants in the naive universe (same interning order).
  for (int i = 0; i < 4; ++i) {
    u_naive.Constant("n" + std::to_string(i));
    u_naive.Constant("n" + std::to_string(i + 1));
  }
  auto semi = ChaseSnapshot(source, mapping_, &u_semi, Mode(true));
  auto naive = ChaseSnapshot(source, mapping_, &u_naive, Mode(false));
  ASSERT_TRUE(semi.ok()) << semi.status();
  ASSERT_TRUE(naive.ok()) << naive.status();
  ASSERT_EQ(semi->kind, ChaseResultKind::kSuccess);
  EXPECT_EQ(semi->stats.tgd_fires, naive->stats.tgd_fires);
  EXPECT_EQ(semi->stats.fresh_nulls, naive->stats.fresh_nulls);
  EXPECT_TRUE(semi->target == naive->target);
  // The cascade actually ran all the way down: every level is populated.
  EXPECT_GT(semi->stats.fresh_nulls, 0u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(semi->target.facts(levels_[i]).empty()) << "level " << i;
  }
}

TEST_F(CascadeFixture, SemiNaiveEnumeratesFewerTriggers) {
  // The perf contract behind the whole engine: on a multi-round cascade the
  // delta frontier must strictly prune re-enumeration (naive re-joins the
  // entire target every round).
  Universe u_semi, u_naive;
  Instance source(&schema_);
  for (int i = 0; i < 8; ++i) {
    source.Insert(a_, {u_semi.Constant("n" + std::to_string(i)),
                       u_semi.Constant("n" + std::to_string(i + 1))});
  }
  for (int i = 0; i < 8; ++i) {
    u_naive.Constant("n" + std::to_string(i));
    u_naive.Constant("n" + std::to_string(i + 1));
  }
  auto semi = ChaseSnapshot(source, mapping_, &u_semi, Mode(true));
  auto naive = ChaseSnapshot(source, mapping_, &u_naive, Mode(false));
  ASSERT_TRUE(semi.ok());
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(semi->stats.tgd_fires, naive->stats.tgd_fires);
  EXPECT_LT(semi->stats.tgd_triggers, naive->stats.tgd_triggers);
}

TEST_F(CascadeFixture, DeltaFrontierBookkeeping) {
  DeltaFrontier frontier;
  EXPECT_TRUE(frontier.full());
  EXPECT_EQ(frontier.mark(0), 0u);
  EXPECT_EQ(frontier.mark(7), 0u);  // unseen relation: whole range is delta
  frontier.AdvanceTo({3, 5});
  EXPECT_FALSE(frontier.full());
  EXPECT_EQ(frontier.mark(0), 3u);
  EXPECT_EQ(frontier.mark(1), 5u);
  EXPECT_EQ(frontier.mark(2), 0u);
  frontier.Reset();
  EXPECT_TRUE(frontier.full());
  EXPECT_EQ(frontier.mark(0), 0u);
}

TEST_F(CascadeFixture, ValuesRewrittenSurfacesEgdWork) {
  // Two tgds disagree on who fills the Hop endpoint; the egd merges a null
  // with a constant, and the rewrite work must show up in the new counter.
  Schema schema;
  const RelationId e = *schema.AddRelation("E", {"n", "c"}, SchemaRole::kSource);
  const RelationId s = *schema.AddRelation("S", {"n", "s"}, SchemaRole::kSource);
  const RelationId emp =
      *schema.AddRelation("Emp", {"n", "c", "s"}, SchemaRole::kTarget);
  Mapping mapping;
  {  // E(n, c) -> exists s: Emp(n, c, s)
    Tgd t;
    t.body.atoms.push_back({e, {Term::Var(0), Term::Var(1)}});
    t.body.num_vars = 3;
    t.head.atoms.push_back({emp, {Term::Var(0), Term::Var(1), Term::Var(2)}});
    t.head.num_vars = 3;
    t.existential.push_back(2);
    mapping.st_tgds.push_back(t);
  }
  {  // E(n, c) & S(n, s) -> Emp(n, c, s)
    Tgd t;
    t.body.atoms.push_back({e, {Term::Var(0), Term::Var(1)}});
    t.body.atoms.push_back({s, {Term::Var(0), Term::Var(2)}});
    t.body.num_vars = 3;
    t.head.atoms.push_back({emp, {Term::Var(0), Term::Var(1), Term::Var(2)}});
    t.head.num_vars = 3;
    mapping.st_tgds.push_back(t);
  }
  {  // Emp(n, c, s) & Emp(n, c, s2) -> s = s2
    Egd egd;
    egd.body.atoms.push_back({emp, {Term::Var(0), Term::Var(1), Term::Var(2)}});
    egd.body.atoms.push_back({emp, {Term::Var(0), Term::Var(1), Term::Var(3)}});
    egd.body.num_vars = 4;
    egd.x1 = 2;
    egd.x2 = 3;
    mapping.egds.push_back(egd);
  }
  Universe u;
  Instance source(&schema);
  source.Insert(e, {u.Constant("ada"), u.Constant("ibm")});
  source.Insert(s, {u.Constant("ada"), u.Constant("90k")});
  auto outcome = ChaseSnapshot(source, mapping, &u);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->kind, ChaseResultKind::kSuccess);
  EXPECT_GT(outcome->stats.egd_steps, 0u);
  EXPECT_GT(outcome->stats.values_rewritten, 0u);
}

// The egd fixpoint seeded with a delta (the c-chase's egd frontier) makes
// the merges a full enumeration makes: a first pass over the appended
// facts, a second over the row it rewrote (whose merge then collides, so a
// third pass starts over in full).
TEST(SemiNaiveEgdTest, DeltaFixpointMatchesFullEnumeration) {
  auto p = ::tdx::testing::ParseOrDie(R"(
    source S(k, v, g);
    source T(v, h);
    target R(k, v, g);
    target M(v, h);
    tgd copy_r: S(k, v, g) -> R(k, v, g);
    tgd copy_m: T(v, h) -> M(v, h);
    egd same: R(k, v, g) & R(k, w, h) -> v = w;
    egd link: R(k, v, g) & M(v, h) -> g = h;
  )");
  const RelationId r = *p->schema.Find("R");
  const RelationId m = *p->schema.Find("M");
  const auto c = [&](const std::string& name) {
    return p->universe.Constant(name);
  };
  // Every egd holds over the first 60 facts.
  Instance base(&p->schema);
  for (int i = 0; i < 30; ++i) {
    const std::string n = std::to_string(i);
    base.Insert(r, {c("k" + n), c("c" + n), c("g" + n)});
    base.Insert(m, {c("c" + n), c("g" + n)});
  }
  DeltaFrontier since;
  since.AdvancePast(base);
  base.Insert(r, {c("a"), p->universe.FreshNull(), p->universe.FreshNull()});
  base.Insert(r, {c("a"), c("1"), c("x")});
  base.Insert(m, {c("1"), c("x")});

  const auto run = [&](const DeltaFrontier* delta, Instance* target) {
    ChaseStats stats;
    std::string reason;
    ResourceGuard guard;
    EXPECT_EQ(EgdFixpoint(target, p->mapping.egds, &stats, &reason, &guard,
                          nullptr, delta),
              ChaseResultKind::kSuccess);
    return stats;
  };
  Instance full = base;
  Instance seeded = base;
  const ChaseStats full_stats = run(nullptr, &full);
  const ChaseStats seeded_stats = run(&since, &seeded);
  EXPECT_EQ(seeded.ToString(p->universe), full.ToString(p->universe));
  for (const RelationId rel : {r, m}) {
    ASSERT_EQ(seeded.facts(rel).size(), full.facts(rel).size());
    for (std::size_t pos = 0; pos < full.facts(rel).size(); ++pos) {
      EXPECT_TRUE(seeded.facts(rel)[pos] == full.facts(rel)[pos]);
    }
  }
  EXPECT_EQ(full_stats.egd_steps, 2u);
  EXPECT_EQ(seeded_stats.egd_steps, full_stats.egd_steps);
  EXPECT_EQ(seeded_stats.values_rewritten, full_stats.values_rewritten);
  EXPECT_LT(seeded_stats.search.index_probes, full_stats.search.index_probes);
}

}  // namespace
}  // namespace tdx
