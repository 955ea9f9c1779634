// Unit tests for the chase planner (src/analysis/planner.h): liveness and
// effect-freeness proofs, stratification invariants, and the engines'
// contract that a schedule never changes chase results — scheduled and
// unscheduled runs are bit-identical.

#include "src/analysis/planner.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "src/core/cchase.h"
#include "src/core/normalize.h"
#include "src/gen/workload.h"
#include "src/parser/parser.h"
#include "src/parser/printer.h"
#include "src/relational/chase.h"
#include "src/temporal/snapshot.h"
#include "tests/test_util.h"

#ifndef TDX_REPO_DIR
#define TDX_REPO_DIR "."
#endif

namespace tdx {
namespace {

using ::tdx::testing::kPaperProgram;
using ::tdx::testing::ParseOrDie;

// A terminating multi-stratum pipeline: two s-t copies, a recursive closure
// rule, a constant-tagging rule, a downstream projection, and an egd whose
// equality is pinned to "ok" on both sides (provably effect-free).
constexpr std::string_view kPipelineProgram = R"(
  source Src(x, y);
  target Edge(x, y);
  target Reach(x, y);
  target Audit(x, y, status);
  target Log(x, status);
  tgd s1: Src(x, y) -> Edge(x, y);
  tgd s2: Src(x, y) -> Reach(x, y);
  ttgd t1: Reach(x, y) & Edge(y, z) -> Reach(x, z);
  ttgd t2: Reach(x, y) -> Audit(x, y, "ok");
  ttgd t3: Audit(x, _, s) -> Log(x, s);
  egd e1: Audit(x, y, s) & Audit(x, y, s2) -> s = s2;
  fact Src("a", "b") @ [0, 8);
  fact Src("b", "c") @ [0, 8);
)";

ChaseSchedule PlanOf(const ParsedProgram& program) {
  if (program.mapping.schedule.has_value()) return *program.mapping.schedule;
  return PlanChase(program.mapping, program.schema);
}

// Every justification edge must point into an equal-or-later stratum, and
// the strata must partition the rule set.
void ExpectWellFormedSchedule(const ChaseSchedule& schedule) {
  std::vector<std::size_t> seen(schedule.rules.size(), 0);
  for (const auto& stratum : schedule.strata) {
    for (std::size_t id : stratum) {
      ASSERT_LT(id, schedule.rules.size());
      ++seen[id];
    }
  }
  for (std::size_t count : seen) EXPECT_EQ(count, 1u);
  for (const ScheduleEdge& edge : schedule.edges) {
    EXPECT_LE(schedule.rules[edge.from].stratum,
              schedule.rules[edge.to].stratum)
        << schedule.ToText();
  }
}

TEST(PlannerTest, EmptyMappingYieldsAnEmptySchedule) {
  const ChaseSchedule schedule = PlanChase(Mapping{}, Schema{});
  EXPECT_TRUE(schedule.rules.empty());
  EXPECT_EQ(schedule.stratum_count(), 0u);
  EXPECT_FALSE(schedule.egd_fixpoint_live());
}

TEST(PlannerTest, PaperMappingKeepsItsMergingEgdLive) {
  auto program = ParseOrDie(kPaperProgram);
  const ChaseSchedule schedule = PlanOf(*program);
  ASSERT_EQ(schedule.rules.size(), 3u);  // sigma1, sigma2, e1
  ExpectWellFormedSchedule(schedule);
  // sigma1 invents salary nulls that e1 merges against sigma2's constants:
  // the fixpoint is anything but a no-op.
  EXPECT_TRUE(schedule.egd_fixpoint_live());
  ASSERT_EQ(schedule.live_egds.size(), 1u);
  EXPECT_EQ(schedule.live_egds[0], 0u);
}

TEST(PlannerTest, PipelineStrataAreTopological) {
  auto program = ParseOrDie(kPipelineProgram);
  const ChaseSchedule schedule = PlanOf(*program);
  ExpectWellFormedSchedule(schedule);
  EXPECT_GE(schedule.stratum_count(), 2u);
}

TEST(PlannerTest, EffectFreeEgdSkipsTheFixpoint) {
  auto program = ParseOrDie(kPipelineProgram);
  const ChaseSchedule schedule = PlanOf(*program);
  EXPECT_FALSE(schedule.egd_fixpoint_live());
  for (const ScheduleRule& rule : schedule.rules) {
    if (rule.kind != ScheduleRuleKind::kEgd) continue;
    EXPECT_TRUE(rule.live);  // it fires — its firings just do nothing
    EXPECT_TRUE(rule.effect_free);
    EXPECT_FALSE(rule.skip_reason.empty());
  }
}

TEST(PlannerTest, AlwaysFailingEgdStaysLive) {
  // Both sides pinned to DIFFERENT constants: any firing fails the chase,
  // so skipping the fixpoint would change results on sources that trigger
  // it. The planner must keep it live.
  auto program = ParseOrDie(R"(
    source A(x);
    target T(x, tag);
    tgd t1: A(x) -> T(x, "a");
    tgd t2: A(x) -> T(x, "b");
    egd e1: T(x, s) & T(x, s2) -> s = s2;
  )");
  const ChaseSchedule schedule = PlanOf(*program);
  EXPECT_TRUE(schedule.egd_fixpoint_live());
  ASSERT_EQ(schedule.live_egds.size(), 1u);
}

TEST(PlannerTest, DeadRuleIsExcludedFromLiveSetsAndGroups) {
  auto program = ParseOrDie(R"(
    source A(x);
    target T(x, tag);
    target U(x);
    tgd t1: A(x) -> T(x, "ok");
    ttgd live: T(x, "ok") -> U(x);
    ttgd dead: T(x, "bad") -> U(x);
  )");
  const ChaseSchedule schedule = PlanOf(*program);
  ASSERT_EQ(schedule.live_target_tgds.size(), 1u);
  EXPECT_EQ(schedule.live_target_tgds[0], 0u);  // 'live' is target tgd #0
  const TgdRunPlan plan =
      BuildTgdRunPlan(program->mapping.target_tgds, &schedule);
  EXPECT_EQ(plan.live, (std::vector<std::size_t>{0}));
  for (const ScheduleRule& rule : schedule.rules) {
    if (rule.kind == ScheduleRuleKind::kTargetTgd && rule.index == 1) {
      EXPECT_FALSE(rule.live);
      EXPECT_FALSE(rule.skip_reason.empty());
    }
  }
}

// The schedule minus its display strings: lifted rules are labeled
// "<label>+" and lifted relations "R+", nothing else may differ.
void ExpectSameSchedule(const ChaseSchedule& carried,
                        const ChaseSchedule& replanned) {
  EXPECT_EQ(carried.strata, replanned.strata);
  EXPECT_EQ(carried.live_target_tgds, replanned.live_target_tgds);
  EXPECT_EQ(carried.live_egds, replanned.live_egds);
  ASSERT_EQ(carried.rules.size(), replanned.rules.size());
  for (std::size_t i = 0; i < carried.rules.size(); ++i) {
    const ScheduleRule& a = carried.rules[i];
    const ScheduleRule& b = replanned.rules[i];
    EXPECT_EQ(a.kind, b.kind) << "rule " << i;
    EXPECT_EQ(a.index, b.index) << "rule " << i;
    EXPECT_EQ(a.stratum, b.stratum) << "rule " << i;
    EXPECT_EQ(a.live, b.live) << "rule " << i;
    EXPECT_EQ(a.effect_free, b.effect_free) << "rule " << i;
  }
  ASSERT_EQ(carried.edges.size(), replanned.edges.size());
  for (std::size_t i = 0; i < carried.edges.size(); ++i) {
    EXPECT_EQ(carried.edges[i].from, replanned.edges[i].from) << "edge " << i;
    EXPECT_EQ(carried.edges[i].to, replanned.edges[i].to) << "edge " << i;
    EXPECT_EQ(carried.edges[i].reason, replanned.edges[i].reason)
        << "edge " << i;
  }
}

// LiftMapping carries M's schedule over to M+ so the engines never plan M+
// again. That is sound only because planning M+ afresh derives the same
// schedule; pinned over the shipped programs, the generators with target
// tgds, and random mappings.
TEST(PlannerTest, LiftingCarriesTheScheduleReplanningDerives) {
  for (const char* name : {"paper", "flights", "medical", "strata"}) {
    SCOPED_TRACE(name);
    std::ifstream in(std::string(TDX_REPO_DIR) + "/examples/programs/" + name +
                     ".tdx");
    ASSERT_TRUE(in.good());
    std::ostringstream text;
    text << in.rdbuf();
    auto program = ParseOrDie(text.str());
    ASSERT_TRUE(program->lifted.schedule.has_value());
    ExpectSameSchedule(*program->lifted.schedule,
                       PlanChase(program->lifted, program->schema));
  }
  const auto expect_lift_keeps_schedule = [](Workload* w) {
    ASSERT_TRUE(ValidateAndCertifyMapping(&w->mapping, w->schema).ok());
    auto lifted = LiftMapping(w->mapping, w->schema);
    ASSERT_TRUE(lifted.ok()) << lifted.status();
    ASSERT_TRUE(lifted->schedule.has_value());
    ExpectSameSchedule(*lifted->schedule, PlanChase(*lifted, w->schema));
  };
  SCOPED_TRACE("generators");
  expect_lift_keeps_schedule(MakeFlightWorkload(FlightConfig{}).get());
  expect_lift_keeps_schedule(MakeChainWorkload(ChainConfig{}).get());
  expect_lift_keeps_schedule(MakeStratifiedWorkload(StratifiedConfig{}).get());
  expect_lift_keeps_schedule(MakeCascadeWorkload(CascadeConfig{}).get());
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE("random mapping seed " + std::to_string(seed));
    RandomMappingConfig cfg;
    cfg.seed = seed;
    expect_lift_keeps_schedule(MakeRandomMappingWorkload(cfg).get());
  }
}

TEST(PlannerTest, InterferencePairsUseMappingIndices) {
  auto program = ParseOrDie(R"(
    source A(x);
    target T(x, v);
    target U(x, v);
    tgd t1: A(x) -> exists v: T(x, v);
    egd e1: T(x, v) & T(x, v2) -> v = v2;
    ttgd t2: T(x, v) -> U(x, v);
  )");
  const PlanDetails details =
      PlanChaseDetailed(program->mapping, program->schema);
  ASSERT_EQ(details.interference.size(), 1u);
  EXPECT_EQ(details.interference[0].first, 0u);   // egd e1
  EXPECT_EQ(details.interference[0].second, 0u);  // target tgd t2
}

// ---------------------------------------------------------------------------
// The engines' contract: a schedule never changes what the chase computes.

void ExpectSameOutcome(const CChaseOutcome& flat, const CChaseOutcome& sched,
                       const Universe& u_flat, const Universe& u_sched) {
  ASSERT_EQ(flat.kind, sched.kind);
  EXPECT_EQ(RenderConcreteInstance(flat.target, u_flat),
            RenderConcreteInstance(sched.target, u_sched));
  EXPECT_EQ(flat.stats.tgd_triggers, sched.stats.tgd_triggers);
  EXPECT_EQ(flat.stats.tgd_fires, sched.stats.tgd_fires);
  EXPECT_EQ(flat.stats.egd_steps, sched.stats.egd_steps);
  EXPECT_EQ(flat.stats.fresh_nulls, sched.stats.fresh_nulls);
  EXPECT_EQ(flat.stats.values_rewritten, sched.stats.values_rewritten);
}

TEST(PlannerTest, ScheduledCChaseMatchesUnscheduledOnThePaperProgram) {
  auto flat_program = ParseOrDie(kPaperProgram);
  auto sched_program = ParseOrDie(kPaperProgram);
  CChaseOptions flat_options;
  flat_options.scheduled = false;
  CChaseOptions sched_options;
  auto flat = CChase(flat_program->source, flat_program->lifted,
                     &flat_program->universe, flat_options);
  auto sched = CChase(sched_program->source, sched_program->lifted,
                      &sched_program->universe, sched_options);
  ASSERT_TRUE(flat.ok()) << flat.status();
  ASSERT_TRUE(sched.ok()) << sched.status();
  ExpectSameOutcome(*flat, *sched, flat_program->universe,
                    sched_program->universe);
  EXPECT_EQ(flat->stats.schedule_strata, 0u);
  EXPECT_GT(sched->stats.schedule_strata, 0u);
}

TEST(PlannerTest, ScheduledCChaseMatchesUnscheduledOnThePipeline) {
  auto flat_program = ParseOrDie(kPipelineProgram);
  auto sched_program = ParseOrDie(kPipelineProgram);
  CChaseOptions flat_options;
  flat_options.scheduled = false;
  CChaseOptions sched_options;
  auto flat = CChase(flat_program->source, flat_program->lifted,
                     &flat_program->universe, flat_options);
  auto sched = CChase(sched_program->source, sched_program->lifted,
                      &sched_program->universe, sched_options);
  ASSERT_TRUE(flat.ok()) << flat.status();
  ASSERT_TRUE(sched.ok()) << sched.status();
  ExpectSameOutcome(*flat, *sched, flat_program->universe,
                    sched_program->universe);
  // The pipeline's egd is effect-free, so the scheduled run skipped every
  // would-be fixpoint pass (and egd_steps stayed 0 in both runs).
  EXPECT_EQ(flat->stats.skipped_egd_passes, 0u);
  EXPECT_GT(sched->stats.skipped_egd_passes, 0u);
  EXPECT_EQ(sched->stats.egd_steps, 0u);
}

TEST(PlannerTest, ScheduledSnapshotChaseMatchesUnscheduled) {
  auto flat_program = ParseOrDie(kPaperProgram);
  auto sched_program = ParseOrDie(kPaperProgram);
  auto flat_snap = SnapshotAt(flat_program->source, 2013,
                              &flat_program->universe);
  auto sched_snap = SnapshotAt(sched_program->source, 2013,
                               &sched_program->universe);
  ASSERT_TRUE(flat_snap.ok());
  ASSERT_TRUE(sched_snap.ok());
  ChaseOptions flat_options;
  flat_options.scheduled = false;
  ChaseOptions sched_options;
  auto flat = ChaseSnapshot(*flat_snap, flat_program->mapping,
                            &flat_program->universe, flat_options);
  auto sched = ChaseSnapshot(*sched_snap, sched_program->mapping,
                             &sched_program->universe, sched_options);
  ASSERT_TRUE(flat.ok()) << flat.status();
  ASSERT_TRUE(sched.ok()) << sched.status();
  ASSERT_EQ(flat->kind, sched->kind);
  EXPECT_TRUE(flat->target == sched->target);
  EXPECT_EQ(flat->stats.tgd_triggers, sched->stats.tgd_triggers);
  EXPECT_EQ(flat->stats.tgd_fires, sched->stats.tgd_fires);
  EXPECT_EQ(flat->stats.egd_steps, sched->stats.egd_steps);
  EXPECT_EQ(flat->stats.fresh_nulls, sched->stats.fresh_nulls);
}

TEST(PlannerTest, NormalizeIsIdempotent) {
  // Pins the c-chase normalize-skip assumption: re-normalizing an already
  // normalized instance is the identity, so skipping the loop-top pass when
  // nothing changed since the last one cannot alter results.
  auto program = ParseOrDie(kPaperProgram);
  const auto phis = program->lifted.TgdBodies();
  const ConcreteInstance once = Normalize(program->source, phis);
  const ConcreteInstance twice = Normalize(once, phis);
  EXPECT_EQ(RenderConcreteInstance(once, program->universe),
            RenderConcreteInstance(twice, program->universe));
}

}  // namespace
}  // namespace tdx
