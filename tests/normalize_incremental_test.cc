// Incremental normalization (core/normalize_incremental.h): a persistent
// NormalizeState must produce bit-identical output to a fresh full
// Normalize after any sequence of appends and in-place egd rewrites, at any
// job count; it must invalidate on every other generation bump and on
// rewrites that move positions; its watermark must survive a checkpoint
// export/restore round trip; and the c-chase must produce the same
// solution with the incremental path on and off, on every workload family
// including randomized mappings and a kill-and-recover sweep.

#include "src/core/normalize_incremental.h"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/planner.h"
#include "src/common/checkpoint.h"
#include "src/common/resource.h"
#include "src/core/cchase.h"
#include "src/core/normalize.h"
#include "src/gen/workload.h"
#include "src/obs/json.h"
#include "src/obs/trace.h"
#include "src/parser/printer.h"
#include "src/relational/chase.h"
#include "tests/test_util.h"

namespace tdx {
namespace {

std::string Render(const ConcreteInstance& instance, const Universe& u) {
  return instance.facts().ToString(u);
}

// Drives two identical worst-case settings in lockstep: `inc` through one
// persistent NormalizeState, `full` through fresh full passes. The
// workload's lhs R(x) & R(y) pairs every two facts, so appends keep
// enlarging one nested component — the hardest shape for the delta sweep.
class NormalizeStateTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kSeedFacts = 8;

  void SetUp() override {
    inc_w_ = MakeWorstCaseNormalizationWorkload(kSeedFacts);
    full_w_ = MakeWorstCaseNormalizationWorkload(kSeedFacts);
    r_plus_ = *inc_w_->schema.Find("R+");
    phis_inc_ = inc_w_->lifted.TgdBodies();
    phis_full_ = full_w_->lifted.TgdBodies();
  }

  void AddBoth(const std::string& name, const Interval& iv) {
    ASSERT_TRUE(inc_w_->source
                    .Add(r_plus_, {inc_w_->universe.Constant(name)}, iv)
                    .ok());
    ASSERT_TRUE(full_w_->source
                    .Add(r_plus_, {full_w_->universe.Constant(name)}, iv)
                    .ok());
  }

  void FullRound(NormalizeStats* stats = nullptr) {
    full_w_->source = Normalize(full_w_->source, phis_full_, stats);
  }

  std::unique_ptr<Workload> inc_w_;
  std::unique_ptr<Workload> full_w_;
  RelationId r_plus_ = 0;
  std::vector<Conjunction> phis_inc_;
  std::vector<Conjunction> phis_full_;
};

TEST_F(NormalizeStateTest, FirstPassMatchesFullNormalize) {
  NormalizeState state;
  NormalizeStats stats;
  state.Normalize(&inc_w_->source, phis_inc_, &stats);
  FullRound();
  EXPECT_EQ(Render(inc_w_->source, inc_w_->universe),
            Render(full_w_->source, full_w_->universe));
  // The first pass has no watermark: everything is delta.
  EXPECT_EQ(stats.delta_facts, stats.input_facts);
  EXPECT_EQ(stats.reused_components, 0u);
  EXPECT_TRUE(state.MatchesWatermark(inc_w_->source));
}

TEST_F(NormalizeStateTest, AppendsTakeIncrementalPathBitIdentically) {
  NormalizeState state;
  state.Normalize(&inc_w_->source, phis_inc_);
  FullRound();

  // Three rounds of appends: one fact overlapping the nested component, one
  // pass-through fact far away, one bridging the two regions.
  const std::vector<std::pair<std::string, Interval>> rounds[] = {
      {{"x0", Interval(3, 2 * kSeedFacts + 1)}},
      {{"x1", Interval(100, 105)}},
      {{"x2", Interval(2 * kSeedFacts - 1, 101)}, {"x3", Interval(1, 2)}},
  };
  for (const auto& round : rounds) {
    for (const auto& [name, iv] : round) AddBoth(name, iv);
    ASSERT_TRUE(state.MatchesWatermark(inc_w_->source));
    NormalizeStats stats;
    state.Normalize(&inc_w_->source, phis_inc_, &stats);
    EXPECT_EQ(stats.delta_facts, round.size());
    EXPECT_LT(stats.delta_facts, stats.input_facts);
    FullRound();
    EXPECT_EQ(Render(inc_w_->source, inc_w_->universe),
              Render(full_w_->source, full_w_->universe));
  }
}

TEST_F(NormalizeStateTest, ZeroDeltaPassIsANoOp) {
  NormalizeState state;
  NormalizeStats first;
  state.Normalize(&inc_w_->source, phis_inc_, &first);
  const std::string before = Render(inc_w_->source, inc_w_->universe);

  NormalizeStats stats;
  state.Normalize(&inc_w_->source, phis_inc_, &stats);
  EXPECT_EQ(Render(inc_w_->source, inc_w_->universe), before);
  EXPECT_EQ(stats.delta_facts, 0u);
  EXPECT_EQ(stats.homomorphisms, 0u);
  EXPECT_EQ(stats.dirty_components, 0u);
  EXPECT_EQ(stats.reused_components, first.groups);
  EXPECT_TRUE(state.MatchesWatermark(inc_w_->source));
}

TEST_F(NormalizeStateTest, GenerationBumpForcesFullPass) {
  NormalizeState state;
  state.Normalize(&inc_w_->source, phis_inc_);
  FullRound();

  // Move-assigning the fact store bumps the generation without changing
  // content — the documented invalidation trigger (egd rewrites, erases,
  // and assignments all route through it).
  Instance shuffled = inc_w_->source.facts();
  inc_w_->source.mutable_facts() = std::move(shuffled);
  Instance shuffled_full = full_w_->source.facts();
  full_w_->source.mutable_facts() = std::move(shuffled_full);
  EXPECT_FALSE(state.MatchesWatermark(inc_w_->source));

  AddBoth("y0", Interval(2, 2 * kSeedFacts));
  NormalizeStats stats;
  state.Normalize(&inc_w_->source, phis_inc_, &stats);
  EXPECT_EQ(stats.delta_facts, stats.input_facts);
  EXPECT_EQ(stats.reused_components, 0u);
  FullRound();
  EXPECT_EQ(Render(inc_w_->source, inc_w_->universe),
            Render(full_w_->source, full_w_->universe));
}

TEST_F(NormalizeStateTest, InvalidateDropsTheWatermark) {
  NormalizeState state;
  state.Normalize(&inc_w_->source, phis_inc_);
  ASSERT_TRUE(state.MatchesWatermark(inc_w_->source));
  state.Invalidate();
  EXPECT_FALSE(state.MatchesWatermark(inc_w_->source));
  EXPECT_FALSE(state.Export(&inc_w_->source.facts()).has_value());
}

TEST_F(NormalizeStateTest, ExportRestoreRoundTrip) {
  NormalizeState state;
  state.Normalize(&inc_w_->source, phis_inc_);
  FullRound();

  const auto wm = state.Export(&inc_w_->source.facts());
  ASSERT_TRUE(wm.has_value());
  EXPECT_EQ(wm->labels.size(),
            static_cast<std::size_t>(inc_w_->source.size()));

  // A fresh state restored from the exported watermark must continue
  // incrementally, exactly like the original.
  NormalizeState restored;
  ASSERT_TRUE(restored.Restore(*wm, inc_w_->source).ok());
  EXPECT_TRUE(restored.MatchesWatermark(inc_w_->source));

  AddBoth("r0", Interval(4, 2 * kSeedFacts + 2));
  NormalizeStats stats;
  restored.Normalize(&inc_w_->source, phis_inc_, &stats);
  EXPECT_EQ(stats.delta_facts, 1u);
  FullRound();
  EXPECT_EQ(Render(inc_w_->source, inc_w_->universe),
            Render(full_w_->source, full_w_->universe));
}

TEST_F(NormalizeStateTest, ExportAfterGenerationBumpIsEmpty) {
  NormalizeState state;
  state.Normalize(&inc_w_->source, phis_inc_);
  Instance shuffled = inc_w_->source.facts();
  inc_w_->source.mutable_facts() = std::move(shuffled);
  EXPECT_FALSE(state.Export(&inc_w_->source.facts()).has_value());
}

TEST_F(NormalizeStateTest, RestoreRejectsTornWatermarks) {
  NormalizeState state;
  state.Normalize(&inc_w_->source, phis_inc_);
  const auto wm = state.Export(&inc_w_->source.facts());
  ASSERT_TRUE(wm.has_value());

  NormalizeState fresh;
  NormalizeState::Watermark torn = *wm;
  torn.labels.pop_back();  // labels no longer parallel to marks
  EXPECT_FALSE(fresh.Restore(torn, inc_w_->source).ok());

  torn = *wm;
  for (auto& mark : torn.marks) mark += 1000;  // marks beyond column sizes
  EXPECT_FALSE(fresh.Restore(torn, inc_w_->source).ok());

  torn = *wm;
  if (!torn.labels.empty()) torn.labels[0] = torn.num_components + 7;
  EXPECT_FALSE(fresh.Restore(torn, inc_w_->source).ok());
}

TEST_F(NormalizeStateTest, FaultSiteTripsTheGuardAndInvalidates) {
  NormalizeState state;
  ResourceGuard guard;
  state.Normalize(&inc_w_->source, phis_inc_, nullptr, &guard);
  ASSERT_FALSE(guard.tripped());

  AddBoth("f0", Interval(3, 2 * kSeedFacts));
  ScopedFault fault("normalize/incremental", Status::Internal("injected"));
  NormalizeStats stats;
  state.Normalize(&inc_w_->source, phis_inc_, &stats, &guard);
  EXPECT_TRUE(guard.tripped());
  EXPECT_EQ(guard.dimension(), ResourceDimension::kInjectedFault);
  EXPECT_TRUE(stats.partial);
  // Per the guard contract the state self-invalidates; the next governed
  // pass (fresh guard) is full and repairs the instance.
  EXPECT_FALSE(state.MatchesWatermark(inc_w_->source));
  ResourceGuard retry;
  state.Normalize(&inc_w_->source, phis_inc_, &stats, &retry);
  ASSERT_FALSE(retry.tripped());
  FullRound();
  EXPECT_EQ(Render(inc_w_->source, inc_w_->universe),
            Render(full_w_->source, full_w_->universe));
}

TEST_F(NormalizeStateTest, Algorithm1TripLeavesTheInstanceAndInvalidates) {
  // Without a watermark the pass pokes the Algorithm 1 site, before the
  // merge: the instance keeps its unnormalized facts.
  NormalizeState state;
  ResourceGuard guard;
  ScopedFault fault("normalize/algorithm1", Status::Internal("injected"));
  NormalizeStats stats;
  state.Normalize(&inc_w_->source, phis_inc_, &stats, &guard);
  EXPECT_TRUE(guard.tripped());
  EXPECT_EQ(guard.dimension(), ResourceDimension::kInjectedFault);
  EXPECT_TRUE(stats.partial);
  EXPECT_EQ(Render(inc_w_->source, inc_w_->universe),
            Render(full_w_->source, full_w_->universe));
  EXPECT_FALSE(state.MatchesWatermark(inc_w_->source));
  EXPECT_FALSE(state.Export(&inc_w_->source.facts()).has_value());
}

// ---------------------------------------------------------------------------
// Dirty rows: in-place rewrites between passes.
// ---------------------------------------------------------------------------

// The st-tgd bodies are the conjunctions normalized against: T and K facts
// group by shared key and by T's value equal to K's value. Components b and
// c are co-valid, so normalization leaves them as they are; component a,
// T("a", N1) @ [0, 4) beside K("a", "x") @ [2, 6), is cut at 2 and 4, and
// its middle fragment T("a", N1^[2,4)) is what the rewrites below change.
// Labels: a pass re-derives the previous component of every dirty row, and
// the other components the checked passes reach stay whole, while every
// component they leave alone is co-valid. So the state's labels must equal
// a full pass's, not just its output. (A pass that leaves the cut
// component a alone, or reaches only part of it through an append, keeps
// its old label on the rest, which a full pass would not give; such passes
// compare output only.)
constexpr std::string_view kJoinProgram = R"(
  source T(k, v);
  source K(k, v);
  target Out(k);
  tgd by_key: T(k, v) & K(k, w) -> Out(k);
  tgd by_value: T(k, v) & K(j, v) -> Out(k);
  fact K("a", "x") @ [2, 6);
  fact T("b", "y") @ [0, 4);
  fact K("b", "m") @ [0, 4);
  fact T("c", "p") @ [0, 6);
  fact K("c", "p") @ [0, 6);
)";

class DirtyRowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    p_ = ::tdx::testing::ParseOrDie(kJoinProgram);
    t_ = *p_->schema.Find("T+");
    k_ = *p_->schema.Find("K+");
    n1_ = p_->universe.FreshAnnotatedNull(Interval(0, 4));
    ASSERT_TRUE(p_->source.Add(t_, {C("a"), n1_}, Interval(0, 4)).ok());
    phis_ = p_->lifted.TgdBodies();
    inst_.emplace(p_->source);
    NormalizeStats first;
    state_.Normalize(&*inst_, phis_, &first);
    ASSERT_EQ(first.groups, 3u);
    ASSERT_EQ(first.output_facts, 8u);
  }

  Value C(const char* name) { return p_->universe.Constant(name); }

  // The facts in storage order, one per line.
  std::string InOrder(const ConcreteInstance& instance) const {
    std::string out;
    instance.facts().ForEach([&](FactView f) {
      out += f.ToFact().ToString(p_->schema, p_->universe) + "\n";
    });
    return out;
  }

  // Rewrites every occurrence of `from` in place, as a light egd merge
  // does, and reports the rewritten rows to the state.
  void Rewrite(const Value& from, const Value& to) {
    std::vector<FactRef> rows;
    inst_->facts().ForEach([&](FactView f) {
      for (const Value& v : f.args()) {
        if (v == from) {
          rows.push_back({f.relation(), f.pos()});
          break;
        }
      }
    });
    ASSERT_FALSE(rows.empty());
    const std::uint64_t generation = inst_->facts().generation();
    const RewriteResult result =
        inst_->mutable_facts().RewriteFacts(rows, {{from, to}});
    ASSERT_FALSE(result.compacted);
    state_.NoteRewrite(inst_->facts(), generation, EgdRewrites{rows, false});
    ASSERT_TRUE(state_.MatchesWatermark(*inst_));
  }

  // Runs the state's pass and a full Normalize over the same input: the
  // outputs must agree fact for fact in storage order, and the component
  // labels must equal those of a fresh state's pass (empty watermark).
  NormalizeStats ExpectPassMatchesFull() {
    ConcreteInstance full = *inst_;
    NormalizeState fresh;
    fresh.Normalize(&full, phis_);
    EXPECT_EQ(InOrder(full), InOrder(Normalize(*inst_, phis_)));
    NormalizeStats stats;
    state_.Normalize(&*inst_, phis_, &stats);
    EXPECT_EQ(InOrder(*inst_), InOrder(full));
    const auto wm = state_.Export(&inst_->facts());
    const auto full_wm = fresh.Export(&full.facts());
    EXPECT_TRUE(wm.has_value());
    EXPECT_TRUE(full_wm.has_value());
    if (wm.has_value() && full_wm.has_value()) {
      EXPECT_EQ(wm->labels, full_wm->labels);
      EXPECT_EQ(wm->num_components, full_wm->num_components);
      EXPECT_TRUE(wm->dirty.empty());
    }
    return stats;
  }

  // The middle fragment of N1, which the first pass cut out of [0, 4).
  Value MiddleOfN1() const { return n1_.Reannotated(Interval(2, 4)); }

  std::unique_ptr<ParsedProgram> p_;
  RelationId t_ = 0;
  RelationId k_ = 0;
  Value n1_;
  std::vector<Conjunction> phis_;
  std::optional<ConcreteInstance> inst_;
  NormalizeState state_;
};

TEST_F(DirtyRowTest, LightRewriteTakesIncrementalPath) {
  Rewrite(MiddleOfN1(), C("x"));
  const NormalizeStats stats = ExpectPassMatchesFull();
  EXPECT_EQ(stats.delta_facts, 1u);
  EXPECT_EQ(stats.dirty_components, 1u);
  EXPECT_EQ(stats.reused_components, 2u);  // b and c copied through
}

TEST_F(DirtyRowTest, RewriteMergingTwoOldComponents) {
  // T("a", "m") now shares its value with K("b", "m"): components a and b
  // become one, and b's facts are cut at a's points.
  Rewrite(MiddleOfN1(), C("m"));
  const NormalizeStats stats = ExpectPassMatchesFull();
  EXPECT_EQ(stats.dirty_components, 1u);
  EXPECT_EQ(stats.reused_components, 1u);  // only c
  EXPECT_GT(stats.output_facts, stats.input_facts);
}

TEST_F(DirtyRowTest, RewriteInTheSamePassAsAppends) {
  Rewrite(MiddleOfN1(), C("x"));
  ASSERT_TRUE(inst_->Add(t_, {C("d"), C("q")}, Interval(0, 3)).ok());
  ASSERT_TRUE(inst_->Add(k_, {C("d"), C("q")}, Interval(1, 5)).ok());
  const NormalizeStats stats = ExpectPassMatchesFull();
  EXPECT_EQ(stats.delta_facts, 3u);
  EXPECT_EQ(stats.dirty_components, 2u);
  EXPECT_EQ(stats.reused_components, 2u);
}

TEST_F(DirtyRowTest, RewriteIntoASharedNullPullsInItsOtherFacts) {
  // T("e", N2) @ [0, 6) is co-valid with K("e", "r") and untouched by the
  // first pass. Rewriting N1's middle fragment to N2^[2,4) makes the two T
  // facts share N2 over [2, 4), so component e must be re-cut at 2 and 4.
  const Value n2 = p_->universe.FreshAnnotatedNull(Interval(0, 6));
  ASSERT_TRUE(inst_->Add(t_, {C("e"), n2}, Interval(0, 6)).ok());
  ASSERT_TRUE(inst_->Add(k_, {C("e"), C("r")}, Interval(0, 6)).ok());
  state_.Normalize(&*inst_, phis_);
  Rewrite(MiddleOfN1(), n2.Reannotated(Interval(2, 4)));
  const NormalizeStats stats = ExpectPassMatchesFull();
  EXPECT_EQ(stats.dirty_components, 1u);
  EXPECT_EQ(stats.reused_components, 2u);  // b and c
}

TEST_F(DirtyRowTest, HeavyMergeFallsBackToAFullPass) {
  // A heavy merge rebuilds the instance wholesale.
  const std::uint64_t generation = inst_->facts().generation();
  Instance rebuilt = inst_->facts();
  inst_->mutable_facts() = std::move(rebuilt);
  state_.NoteRewrite(inst_->facts(), generation,
                     EgdRewrites{{}, /*positions_moved=*/true});
  EXPECT_FALSE(state_.MatchesWatermark(*inst_));
  const NormalizeStats stats = ExpectPassMatchesFull();
  EXPECT_EQ(stats.delta_facts, stats.input_facts);
  EXPECT_EQ(stats.reused_components, 0u);
}

TEST_F(DirtyRowTest, CompactingRewriteFallsBackToAFullPass) {
  // With T("a", "x") @ [2, 4) present, rewriting N1's middle fragment to
  // "x" collides with it, and the rewrite closes the hole.
  ASSERT_TRUE(inst_->Add(t_, {C("a"), C("x")}, Interval(2, 4)).ok());
  state_.Normalize(&*inst_, phis_);
  std::vector<FactRef> rows;
  inst_->facts().ForEach([&](FactView f) {
    if (f.args()[1] == MiddleOfN1()) rows.push_back({f.relation(), f.pos()});
  });
  ASSERT_EQ(rows.size(), 1u);
  const std::uint64_t generation = inst_->facts().generation();
  ASSERT_TRUE(inst_->mutable_facts()
                  .RewriteFacts(rows, {{MiddleOfN1(), C("x")}})
                  .compacted);
  state_.NoteRewrite(inst_->facts(), generation,
                     EgdRewrites{{}, /*positions_moved=*/true});
  EXPECT_FALSE(state_.MatchesWatermark(*inst_));
  const NormalizeStats stats = ExpectPassMatchesFull();
  EXPECT_EQ(stats.delta_facts, stats.input_facts);
  EXPECT_EQ(stats.reused_components, 0u);
}

TEST_F(DirtyRowTest, RewriteFromAStaleGenerationInvalidates) {
  Instance copy = inst_->facts();
  inst_->mutable_facts() = std::move(copy);  // an unreported bump
  state_.NoteRewrite(inst_->facts(), inst_->facts().generation(),
                     EgdRewrites{});
  EXPECT_FALSE(state_.MatchesWatermark(*inst_));
}

TEST_F(DirtyRowTest, DirtyRowsSurviveExportAndRestore) {
  Rewrite(MiddleOfN1(), C("m"));
  const auto wm = state_.Export(&inst_->facts());
  ASSERT_TRUE(wm.has_value());
  ASSERT_EQ(wm->dirty.size(), 1u);
  EXPECT_EQ(wm->dirty[0].rel, t_);

  NormalizeState restored;
  ConcreteInstance copy = *inst_;
  ASSERT_TRUE(restored.Restore(*wm, copy).ok());
  ASSERT_TRUE(restored.MatchesWatermark(copy));
  NormalizeStats got;
  restored.Normalize(&copy, phis_, &got);
  const NormalizeStats want = ExpectPassMatchesFull();
  EXPECT_EQ(InOrder(copy), InOrder(*inst_));
  EXPECT_EQ(got.delta_facts, want.delta_facts);
  EXPECT_EQ(got.reused_components, want.reused_components);
  EXPECT_EQ(got.homomorphisms, want.homomorphisms);

  NormalizeState::Watermark torn = *wm;
  torn.dirty[0].pos = torn.marks[torn.dirty[0].rel];  // past the mark
  NormalizeState fresh;
  EXPECT_EQ(fresh.Restore(torn, copy).code(), StatusCode::kInvalidArgument);
  torn = *wm;
  torn.dirty.push_back(torn.dirty[0]);  // not strictly ascending
  EXPECT_EQ(fresh.Restore(torn, copy).code(), StatusCode::kInvalidArgument);
}

// EgdFixpoint's report, which the c-chase hands to NoteRewrite.
TEST(EgdRewritesTest, ReportsLightRowsAndMovedPositions) {
  auto p = ::tdx::testing::ParseOrDie(R"(
    source S(k, v, g);
    target R(k, v, g);
    tgd copy: S(k, v, g) -> R(k, v, g);
    egd same: R(k, v, g) & R(k, w, h) -> v = w;
  )");
  const RelationId r = *p->schema.Find("R");
  const auto run = [&](Instance* target) {
    ChaseStats stats;
    std::string reason;
    ResourceGuard guard;
    EgdRewrites rewrites;
    EXPECT_EQ(EgdFixpoint(target, p->mapping.egds, &stats, &reason, &guard,
                          &rewrites),
              ChaseResultKind::kSuccess);
    return rewrites;
  };
  const Value n1 = p->universe.FreshNull();
  const auto c = [&](const std::string& name) {
    return p->universe.Constant(name);
  };

  // Light: one of five facts mentions the merged null.
  Instance light(&p->schema);
  light.Insert(r, {c("a"), n1, c("t1")});
  light.Insert(r, {c("a"), c("1"), c("t2")});
  for (const char* k : {"b", "d", "e"}) light.Insert(r, {c(k), c("2"), c("t")});
  const EgdRewrites light_report = run(&light);
  EXPECT_FALSE(light_report.positions_moved);
  ASSERT_EQ(light_report.rows.size(), 1u);
  EXPECT_EQ(light_report.rows[0], (FactRef{r, 0}));

  // Compacting: the rewritten fact collides with its partner.
  Instance compacting(&p->schema);
  compacting.Insert(r, {c("a"), n1, c("t")});
  compacting.Insert(r, {c("a"), c("1"), c("t")});
  for (const char* k : {"b", "d", "e"}) {
    compacting.Insert(r, {c(k), c("2"), c("t")});
  }
  const EgdRewrites compacting_report = run(&compacting);
  EXPECT_TRUE(compacting_report.positions_moved);
  EXPECT_TRUE(compacting_report.rows.empty());

  // Heavy: the merge touches more than half the facts.
  Instance heavy(&p->schema);
  heavy.Insert(r, {c("a"), n1, c("t1")});
  heavy.Insert(r, {c("b"), n1, c("t2")});
  heavy.Insert(r, {c("a"), c("1"), c("t3")});
  const EgdRewrites heavy_report = run(&heavy);
  EXPECT_TRUE(heavy_report.positions_moved);
  EXPECT_TRUE(heavy_report.rows.empty());

  // Nothing to merge: no rows, no move.
  Instance clean(&p->schema);
  clean.Insert(r, {c("a"), c("1"), c("t")});
  const EgdRewrites clean_report = run(&clean);
  EXPECT_FALSE(clean_report.positions_moved);
  EXPECT_TRUE(clean_report.rows.empty());
}

// ---------------------------------------------------------------------------
// In place: a pass edits the instance where it stands, and must leave the
// rows, in the order, that a fresh emission into an empty instance writes.
// ---------------------------------------------------------------------------

// Algorithm 1 emitted into an empty instance, by brute force: every phi*
// image whose intervals intersect is one group, and so is every pair of
// time-overlapping facts sharing an annotated null; each grouped fact is
// emitted as its fragments at its component's endpoints, in (relation,
// position) order, duplicates dropped.
struct Emission {
  Instance out;
  std::size_t split_rows = 0;
  std::size_t dropped = 0;
};

Emission EmitFresh(const ConcreteInstance& input,
                   const std::vector<Conjunction>& phis) {
  const Instance& facts = input.facts();
  std::vector<FactView> rows;
  facts.ForEach([&](FactView f) { rows.push_back(f); });
  std::vector<std::size_t> parent(rows.size());
  std::vector<char> grouped(rows.size(), 0);
  for (std::size_t i = 0; i < rows.size(); ++i) parent[i] = i;
  const auto find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x];
    return x;
  };
  const auto unite = [&](std::size_t a, std::size_t b) {
    grouped[a] = grouped[b] = 1;
    parent[find(a)] = find(b);
  };
  const auto id_of = [&](FactView f) {
    std::size_t id = 0;
    for (RelationId r = 0; r < f.relation(); ++r) id += facts.facts(r).size();
    return id + f.pos();
  };
  HomomorphismFinder finder(facts);
  for (const Conjunction& phi : phis) {
    const Conjunction star = RenameTemporalApart(phi);
    Binding binding(star.num_vars);
    HomomorphismFinder::Cursor cursor = finder.Open(star, &binding);
    while (cursor.Next()) {
      const AtomImage& image = cursor.image();
      std::optional<Interval> common = image[0].interval();
      for (FactView f : image) {
        if (common) common = common->Intersect(f.interval());
      }
      if (!common) continue;
      for (FactView f : image) unite(id_of(image[0]), id_of(f));
    }
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = i + 1; j < rows.size(); ++j) {
      if (!rows[i].interval().Intersect(rows[j].interval())) continue;
      for (const Value& a : rows[i].args()) {
        for (const Value& b : rows[j].args()) {
          if (a.is_annotated_null() && b.is_annotated_null() &&
              a.null_id() == b.null_id()) {
            unite(i, j);
          }
        }
      }
    }
  }
  std::map<std::size_t, std::vector<TimePoint>> points;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (grouped[i] == 0) continue;
    std::vector<TimePoint>& pts = points[find(i)];
    const Interval iv = rows[i].interval();
    pts.push_back(iv.start());
    if (!iv.unbounded()) pts.push_back(iv.end());
  }
  for (auto& [root, pts] : points) {
    std::sort(pts.begin(), pts.end());
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  }
  Emission emission{Instance(&facts.schema())};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (grouped[i] == 0) {
      emission.out.Insert(rows[i]);
      continue;
    }
    std::vector<Interval> fragments;
    AppendFragments(rows[i].interval(), points[find(i)], &fragments);
    if (fragments.size() > 1) ++emission.split_rows;
    for (const Interval& sub : fragments) {
      if (!emission.out.Insert(rows[i].WithInterval(sub))) ++emission.dropped;
    }
  }
  return emission;
}

// Row for row, in position order.
void ExpectSameRows(const Instance& got, const Instance& want) {
  ASSERT_EQ(got.size(), want.size());
  for (RelationId r = 0; r < want.schema().relation_count(); ++r) {
    const FactColumn a = got.facts(r);
    const FactColumn b = want.facts(r);
    ASSERT_EQ(a.size(), b.size()) << "relation " << r;
    for (std::size_t pos = 0; pos < a.size(); ++pos) {
      EXPECT_TRUE(a[pos] == b[pos]) << "relation " << r << " row " << pos;
    }
  }
}

// The in-place pass on `input` against the fresh emission; returns what
// the emission split and dropped.
Emission ExpectInPlaceMatchesFreshEmission(
    const ConcreteInstance& input, const std::vector<Conjunction>& phis) {
  Emission fresh = EmitFresh(input, phis);
  ConcreteInstance in_place = input;
  NormalizeState state;
  state.Normalize(&in_place, phis);
  ExpectSameRows(in_place.facts(), fresh.out);
  ExpectSameRows(Normalize(input, phis).facts(), fresh.out);
  return fresh;
}

TEST(InPlaceNormalizeTest, IdentityPassKeepsTheGenerationAndEveryRow) {
  auto program = testing::ParseOrDie(testing::kPaperProgram);
  const std::vector<Conjunction> phis = program->lifted.TgdBodies();
  ConcreteInstance instance = Normalize(program->source, phis);
  const auto snapshot = [](const ConcreteInstance& ci) {
    std::vector<Fact> rows;
    ci.facts().ForEach([&](FactView f) { rows.push_back(f.ToFact()); });
    return rows;
  };

  // A pass from an empty watermark over a normalized instance changes no
  // row, so nothing moves.
  const std::uint64_t generation = instance.facts().generation();
  const std::vector<Fact> before = snapshot(instance);
  NormalizeState state;
  NormalizeStats stats;
  state.Normalize(&instance, phis, &stats);
  EXPECT_EQ(stats.full_passes, 1u);
  EXPECT_EQ(instance.facts().generation(), generation);
  EXPECT_EQ(snapshot(instance), before);

  // So does a watermarked pass over an append that groups with nothing.
  const RelationId e_plus = *program->schema.Find("E+");
  ASSERT_TRUE(instance
                  .Add(e_plus,
                       {program->universe.Constant("Zed"),
                        program->universe.Constant("Nowhere")},
                       Interval(100, 101))
                  .ok());
  const std::vector<Fact> appended = snapshot(instance);
  state.Normalize(&instance, phis, &stats);
  EXPECT_EQ(stats.full_passes, 0u);
  EXPECT_EQ(stats.delta_facts, 1u);
  EXPECT_EQ(instance.facts().generation(), generation);
  EXPECT_EQ(snapshot(instance), appended);
}

TEST(InPlaceNormalizeTest, FixturesMatchAFreshEmissionRowForRow) {
  auto paper = testing::ParseOrDie(testing::kPaperProgram);
  ExpectInPlaceMatchesFreshEmission(paper->source, paper->lifted.TgdBodies());
  for (const std::size_t n : {4u, 8u}) {
    auto w = MakeWorstCaseNormalizationWorkload(n);
    const Emission e =
        ExpectInPlaceMatchesFreshEmission(w->source, w->lifted.TgdBodies());
    EXPECT_GT(e.split_rows, 0u);
  }
  // Facts sharing an annotated null are cut together (normalize_test.cc).
  Universe u;
  Schema schema;
  const RelationId t_plus =
      *schema.AddRelationPair("T", {"a", "b"}, SchemaRole::kTarget);
  const Value n = u.FreshAnnotatedNull(Interval(11, 14));
  const Value m = u.FreshAnnotatedNull(Interval(11, 14));
  ConcreteInstance shared(&schema);
  const Interval late(13, 14);
  ASSERT_TRUE(
      shared.Add(t_plus, {u.Constant("c1"), n.Reannotated(late)}, late).ok());
  ASSERT_TRUE(shared.Add(t_plus, {n, m}, Interval(11, 14)).ok());
  const Interval after(20, 22);
  ASSERT_TRUE(
      shared.Add(t_plus, {u.Constant("c2"), n.Reannotated(after)}, after).ok());
  const Emission e = ExpectInPlaceMatchesFreshEmission(shared, {});
  EXPECT_EQ(e.split_rows, 1u);
}

TEST(InPlaceNormalizeTest, FuzzSeedsMatchAFreshEmissionRowForRow) {
  // Random employment sources split rows, and co-valid facts of one key
  // cut at the same points collapse into duplicate fragments.
  std::size_t split_rows = 0;
  std::size_t dropped = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    RandomConfig cfg;
    cfg.num_facts = 60;
    cfg.num_names = 6;
    cfg.seed = seed;
    auto w = MakeRandomWorkload(cfg);
    const Emission e =
        ExpectInPlaceMatchesFreshEmission(w->source, w->lifted.TgdBodies());
    split_rows += e.split_rows;
    dropped += e.dropped;
  }
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    RandomMappingConfig cfg;
    cfg.seed = seed;
    auto w = MakeRandomMappingWorkload(cfg);
    const Emission e =
        ExpectInPlaceMatchesFreshEmission(w->source, w->lifted.TgdBodies());
    split_rows += e.split_rows;
    dropped += e.dropped;
  }
  EXPECT_GT(split_rows, 0u);
  EXPECT_GT(dropped, 0u);
}

TEST(InPlaceNormalizeTest, NoCascadeTargetPassAfterTheFirstMovesARow) {
  // The perfbench cascade: a pass that rewrites a tail opens a
  // normalize.rewrite_tail span (and bumps the target's generation, which
  // drops every finder's indexes and the chase's frontier). Only the first
  // target pass may do so.
  auto w = MakeCascadeWorkload(CascadeConfig{
      .stages = 100, .ballast_keys = 60, .ballast_dup = 30, .horizon = 32});
  obs::Tracer tracer;
  std::optional<CChaseOutcome> outcome;
  {
    obs::ScopedTracer installed(&tracer);
    auto run = CChase(w->source, w->lifted, &w->universe);
    ASSERT_TRUE(run.ok()) << run.status();
    outcome = std::move(run).value();
  }
  ASSERT_EQ(outcome->kind, ChaseResultKind::kSuccess);
  EXPECT_EQ(outcome->target_norm_stats.full_passes, 1u);
  auto trace = obs::ParseJson(tracer.ToChromeTraceJson());
  ASSERT_TRUE(trace.ok()) << trace.status();
  const obs::Json* events = trace->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Events come in (ts, -dur) order, so a rewrite follows the pass that
  // contains it.
  std::size_t passes = 0;
  std::size_t late_rewrites = 0;
  for (const obs::Json& event : events->items()) {
    const std::string& name = event.Find("name")->as_string();
    if (name == "cchase.normalize_pass") ++passes;
    if (name == "normalize.rewrite_tail" && passes > 1) ++late_rewrites;
  }
  EXPECT_EQ(passes, outcome->target_norm_stats.passes);
  EXPECT_EQ(late_rewrites, 0u);
}

// ---------------------------------------------------------------------------
// End to end: the c-chase with the incremental path on vs off.
// ---------------------------------------------------------------------------

using WorkloadFactory = std::function<std::unique_ptr<Workload>()>;

void ExpectIncrementalMatchesFull(const WorkloadFactory& make) {
  auto w_inc = make();
  auto w_full = make();
  CChaseOptions inc, full;
  full.incremental_normalize = false;
  auto a = CChase(w_inc->source, w_inc->lifted, &w_inc->universe, inc);
  auto b = CChase(w_full->source, w_full->lifted, &w_full->universe, full);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_EQ(a->kind, b->kind);
  EXPECT_EQ(a->stats.tgd_fires, b->stats.tgd_fires);
  EXPECT_EQ(a->stats.egd_steps, b->stats.egd_steps);
  EXPECT_EQ(a->stats.fresh_nulls, b->stats.fresh_nulls);
  EXPECT_EQ(a->stats.values_rewritten, b->stats.values_rewritten);
  if (a->kind == ChaseResultKind::kSuccess) {
    EXPECT_EQ(RenderConcreteInstance(a->target, w_inc->universe),
              RenderConcreteInstance(b->target, w_full->universe));
    EXPECT_EQ(a->target_norm_stats.output_facts,
              b->target_norm_stats.output_facts);
  } else if (a->kind == ChaseResultKind::kFailure) {
    EXPECT_EQ(a->failure_reason, b->failure_reason);
  }
}

TEST(CChaseIncrementalTest, EmploymentMatchesFull) {
  ExpectIncrementalMatchesFull([] {
    return MakeEmploymentWorkload(
        EmploymentConfig{.num_people = 25, .num_companies = 4, .avg_jobs = 3,
                         .horizon = 60, .salary_known_fraction = 0.6,
                         .inject_conflict = false, .seed = 13});
  });
}

TEST(CChaseIncrementalTest, FailingChaseMatchesFull) {
  ExpectIncrementalMatchesFull([] {
    return MakeEmploymentWorkload(
        EmploymentConfig{.num_people = 20, .num_companies = 3, .avg_jobs = 3,
                         .horizon = 50, .salary_known_fraction = 0.9,
                         .inject_conflict = true, .seed = 3});
  });
}

TEST(CChaseIncrementalTest, ChainCascadeMatchesFull) {
  ExpectIncrementalMatchesFull(
      [] { return MakeChainWorkload(ChainConfig{.hops = 10}); });
}

TEST(CChaseIncrementalTest, StratifiedMatchesFull) {
  ExpectIncrementalMatchesFull(
      [] { return MakeStratifiedWorkload(StratifiedConfig{.hops = 8}); });
}

TEST(CChaseIncrementalTest, CascadeMatchesFull) {
  ExpectIncrementalMatchesFull([] {
    return MakeCascadeWorkload(CascadeConfig{
        .stages = 5, .ballast_keys = 8, .ballast_dup = 3, .horizon = 8});
  });
}

TEST(CChaseIncrementalTest, RandomMappingFuzzMatchesFull) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    RandomMappingConfig cfg;
    cfg.seed = seed;
    ExpectIncrementalMatchesFull([&] { return MakeRandomMappingWorkload(cfg); });
  }
}

TEST(CChaseIncrementalTest, RandomInstanceFuzzMatchesFull) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RandomConfig cfg;
    cfg.num_facts = 80;
    cfg.seed = seed;
    ExpectIncrementalMatchesFull([&] { return MakeRandomWorkload(cfg); });
  }
}

// ---------------------------------------------------------------------------
// The cascade workload itself: shape the ablation benchmark relies on.
// ---------------------------------------------------------------------------

TEST(CascadeWorkloadTest, PlannerProvesBallastEgdEffectFreeAndResolverLive) {
  auto w = MakeCascadeWorkload(CascadeConfig{
      .stages = 4, .ballast_keys = 4, .ballast_dup = 2, .horizon = 8});
  const ChaseSchedule schedule = PlanChase(w->mapping, w->schema);
  ASSERT_EQ(schedule.rules.size(), 8u);
  const ScheduleRule& resolve = schedule.rules[schedule.rules.size() - 2];
  const ScheduleRule& ballast = schedule.rules.back();
  EXPECT_EQ(resolve.name, "e1");
  EXPECT_EQ(ballast.name, "eB");
  EXPECT_TRUE(resolve.live);
  EXPECT_FALSE(resolve.effect_free);
  EXPECT_TRUE(ballast.live);
  EXPECT_TRUE(ballast.effect_free);
}

TEST(CascadeWorkloadTest, EachStageNeedsOneEgdMerge) {
  const CascadeConfig cfg{
      .stages = 6, .ballast_keys = 5, .ballast_dup = 2, .horizon = 8};
  auto w = MakeCascadeWorkload(cfg);
  auto outcome = CChase(w->source, w->lifted, &w->universe);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_EQ(outcome->kind, ChaseResultKind::kSuccess);
  // One hop null minted and merged per stage: the chase is forced through
  // `stages` normalize/egd iterations rather than one closure.
  EXPECT_EQ(outcome->stats.fresh_nulls, cfg.stages);
  EXPECT_EQ(outcome->stats.egd_steps, cfg.stages);
  // The incremental normalizer reuses the ballast components every pass.
  EXPECT_GT(outcome->target_norm_stats.reused_components, 0u);
}

TEST(CascadeWorkloadTest, OnlyTheFirstTargetPassIsFull) {
  // Every stage's egd merge rewrites one Hop row in place; the rows stay in
  // the watermark as dirty rows, so no later pass starts over.
  const CascadeConfig cfg{
      .stages = 8, .ballast_keys = 5, .ballast_dup = 3, .horizon = 8};
  auto w = MakeCascadeWorkload(cfg);
  auto outcome = CChase(w->source, w->lifted, &w->universe);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_EQ(outcome->kind, ChaseResultKind::kSuccess);
  ASSERT_EQ(outcome->stats.egd_steps, cfg.stages);
  EXPECT_EQ(outcome->target_norm_stats.full_passes, 1u);
  EXPECT_GT(outcome->target_norm_stats.passes, cfg.stages);
}

TEST(CChaseIncrementalTest, NonIncrementalCheckpointsCarryNoWatermark) {
  // Persist every safe point; the last one sits at the final loop top,
  // where an incremental run holds a valid watermark.
  const auto last_checkpoint = [](bool incremental) {
    auto w = MakeCascadeWorkload(CascadeConfig{
        .stages = 3, .ballast_keys = 4, .ballast_dup = 2, .horizon = 8});
    Checkpointer checkpointer("", &w->schema, &w->universe);
    checkpointer.set_cadence(1);
    checkpointer.set_max_overhead(0);
    CChaseOptions options;
    options.incremental_normalize = incremental;
    options.checkpointer = &checkpointer;
    auto outcome = CChase(w->source, w->lifted, &w->universe, options);
    EXPECT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_TRUE(checkpointer.latest().has_value());
    return checkpointer.latest().value_or(ChaseCheckpoint{});
  };
  const ChaseCheckpoint incremental = last_checkpoint(true);
  const ChaseCheckpoint full = last_checkpoint(false);
  ASSERT_EQ(incremental.phase, "loop-top");
  ASSERT_EQ(full.phase, "loop-top");
  EXPECT_TRUE(incremental.norm_state_valid);
  EXPECT_FALSE(full.norm_state_valid);
  EXPECT_TRUE(full.norm_marks.empty());
  EXPECT_TRUE(full.norm_labels.empty());
  EXPECT_TRUE(full.norm_dirty.empty());
}

// ---------------------------------------------------------------------------
// Chaos: kill at the incremental site (and around it), resume, compare.
// ---------------------------------------------------------------------------

std::string ChaosSiteName(
    const ::testing::TestParamInfo<const char*>& param_info) {
  std::string name = param_info.param;
  for (char& c : name) {
    if (c == '/' || c == '-') c = '_';
  }
  return name;
}

class CascadeChaosTest : public ::testing::TestWithParam<const char*> {
 protected:
  void TearDown() override { FaultRegistry::DisarmAll(); }

  static CascadeConfig Config() {
    return CascadeConfig{
        .stages = 4, .ballast_keys = 6, .ballast_dup = 3, .horizon = 8};
  }
};

TEST_P(CascadeChaosTest, KillResumeIsBitIdentical) {
  auto base_w = MakeCascadeWorkload(Config());
  auto base = CChase(base_w->source, base_w->lifted, &base_w->universe);
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_EQ(base->kind, ChaseResultKind::kSuccess);
  const std::string baseline =
      RenderConcreteInstance(base->target, base_w->universe);

  const char* site = GetParam();
  std::size_t kills = 0;
  for (std::size_t skip = 0; skip < 64; ++skip) {
    auto w = MakeCascadeWorkload(Config());
    Checkpointer checkpointer("", &w->schema, &w->universe);
    checkpointer.set_cadence(1);
    checkpointer.set_max_overhead(0);
    CChaseOptions options;
    options.checkpointer = &checkpointer;

    bool killed = false;
    {
      ScopedFault fault(site, Status::Internal("injected fault"), skip);
      auto outcome = CChase(w->source, w->lifted, &w->universe, options);
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      if (outcome->kind == ChaseResultKind::kSuccess) {
        EXPECT_EQ(RenderConcreteInstance(outcome->target, w->universe),
                  baseline);
        break;
      }
      ASSERT_EQ(outcome->kind, ChaseResultKind::kAborted);
      EXPECT_EQ(outcome->abort_dimension, ResourceDimension::kInjectedFault);
      killed = true;
    }
    if (!killed) break;
    ++kills;

    CChaseOptions resume_options;
    resume_options.resume_from = checkpointer.latest().has_value()
                                     ? &*checkpointer.latest()
                                     : nullptr;
    auto resumed = CChase(w->source, w->lifted, &w->universe, resume_options);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    ASSERT_EQ(resumed->kind, ChaseResultKind::kSuccess);
    EXPECT_EQ(RenderConcreteInstance(resumed->target, w->universe), baseline)
        << "divergence after kill at " << site << "@" << skip;
    EXPECT_EQ(resumed->stats.fresh_nulls, base->stats.fresh_nulls);
    EXPECT_EQ(resumed->stats.egd_steps, base->stats.egd_steps);
  }
  EXPECT_GT(kills, 0u) << "site " << site << " was never reached";
}

INSTANTIATE_TEST_SUITE_P(AllSites, CascadeChaosTest,
                         ::testing::Values("normalize/incremental",
                                           "cchase/normalize-target",
                                           "cchase/egd-fixpoint"),
                         ChaosSiteName);

}  // namespace
}  // namespace tdx
