// Resource governance: every engine must halt cleanly at its budget with a
// structured kAborted / kResourceExhausted, never returning a partial target
// as a claimed solution. Budgets default to unlimited, so the guard must
// also be invisible when unset.

#include "src/common/resource.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/core/cchase.h"
#include "src/core/certain.h"
#include "src/core/naive_eval.h"
#include "src/core/normalize.h"
#include "src/core/query.h"
#include "src/parser/parser.h"
#include "src/temporal/abstract_chase.h"
#include "src/temporal/snapshot.h"
#include "tests/test_util.h"

namespace tdx {
namespace {

using ::tdx::testing::kMergingProgram;
using ::tdx::testing::kPaperProgram;
using ::tdx::testing::ParseOrDie;

// ---------------------------------------------------------------------------
// ResourceGuard unit behavior
// ---------------------------------------------------------------------------

TEST(ResourceGuardTest, UnlimitedGuardNeverTrips) {
  ResourceGuard guard;
  for (std::size_t total : {std::size_t{1}, std::size_t{1000}, kUnlimited}) {
    EXPECT_TRUE(guard.AdmitTgdFires(total));
    EXPECT_TRUE(guard.AdmitEgdSteps(total));
    EXPECT_TRUE(guard.AdmitFreshNulls(total));
    EXPECT_TRUE(guard.AdmitFacts(total));
    EXPECT_TRUE(guard.AdmitFragments(total));
    EXPECT_TRUE(guard.CheckDeadline());
  }
  EXPECT_TRUE(guard.ok());
  EXPECT_EQ(guard.dimension(), ResourceDimension::kNone);
  EXPECT_TRUE(guard.ToStatus().ok());
  EXPECT_TRUE(guard.reason().empty());
}

TEST(ResourceGuardTest, CountBudgetTripsAtLimit) {
  ChaseLimits limits;
  limits.max_tgd_fires = 3;
  ResourceGuard guard(limits);
  EXPECT_TRUE(guard.AdmitTgdFires(1));
  EXPECT_TRUE(guard.AdmitTgdFires(2));
  EXPECT_TRUE(guard.AdmitTgdFires(3));
  EXPECT_FALSE(guard.AdmitTgdFires(4));
  EXPECT_TRUE(guard.tripped());
  EXPECT_EQ(guard.dimension(), ResourceDimension::kTgdFires);
  EXPECT_EQ(guard.ToStatus().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(guard.reason(), "tgd-fires budget of 3 exhausted");
  // Tripped for good: even a count within the limit is refused now.
  EXPECT_FALSE(guard.AdmitTgdFires(1));
}

TEST(ResourceGuardTest, TripsOnceAndKeepsFirstDimension) {
  ChaseLimits limits;
  limits.max_egd_steps = 1;
  limits.max_facts = 1;
  ResourceGuard guard(limits);
  EXPECT_FALSE(guard.AdmitEgdSteps(5));
  EXPECT_EQ(guard.dimension(), ResourceDimension::kEgdSteps);
  // A later over-budget admission on a different dimension must not
  // overwrite the original trip.
  EXPECT_FALSE(guard.AdmitFacts(2));
  EXPECT_FALSE(guard.AdmitFacts(3));
  EXPECT_EQ(guard.dimension(), ResourceDimension::kEgdSteps);
}

TEST(ResourceGuardTest, FragmentBudgetIsPerPass) {
  // Each normalization pass counts its own fragments: the smallest budget
  // one pass fits in also fits two passes on the same guard.
  const auto program = ParseOrDie(kPaperProgram);
  const std::vector<Conjunction> phis = program->lifted.TgdBodies();
  const auto run = [&](std::size_t budget, int passes) {
    ChaseLimits limits;
    limits.max_normalize_fragments = budget;
    ResourceGuard guard(limits);
    for (int i = 0; i < passes; ++i) {
      Normalize(program->source, phis, nullptr, &guard);
    }
    return guard.dimension();
  };
  std::size_t budget = 1;
  while (run(budget, 1) != ResourceDimension::kNone) {
    ASSERT_EQ(run(budget, 1), ResourceDimension::kNormalizeFragments);
    ++budget;
  }
  ASSERT_GT(budget, 1u);
  EXPECT_EQ(run(budget, 2), ResourceDimension::kNone);
}

TEST(ResourceGuardTest, ExpiredDeadlineTripsOnFirstPoll) {
  ChaseLimits limits;
  limits.deadline = std::chrono::milliseconds(0);
  ResourceGuard guard(limits);
  EXPECT_FALSE(guard.CheckDeadline());
  EXPECT_EQ(guard.dimension(), ResourceDimension::kWallClock);
  EXPECT_EQ(guard.ToStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(ResourceGuardTest, GenerousDeadlineDoesNotTrip) {
  ChaseLimits limits;
  limits.deadline = std::chrono::milliseconds(60000);
  ResourceGuard guard(limits);
  for (int i = 0; i < 10000; ++i) EXPECT_TRUE(guard.CheckDeadline());
  EXPECT_TRUE(guard.ok());
}

TEST(ResourceGuardTest, DimensionTokensAreStable) {
  EXPECT_EQ(ResourceDimensionToString(ResourceDimension::kTgdFires),
            "tgd-fires");
  EXPECT_EQ(ResourceDimensionToString(ResourceDimension::kEgdSteps),
            "egd-steps");
  EXPECT_EQ(ResourceDimensionToString(ResourceDimension::kFreshNulls),
            "fresh-nulls");
  EXPECT_EQ(ResourceDimensionToString(ResourceDimension::kFacts), "facts");
  EXPECT_EQ(ResourceDimensionToString(ResourceDimension::kNormalizeFragments),
            "normalize-fragments");
  EXPECT_EQ(ResourceDimensionToString(ResourceDimension::kWallClock),
            "wall-clock");
  EXPECT_EQ(ResourceDimensionToString(ResourceDimension::kInjectedFault),
            "injected-fault");
}

TEST(ChaseLimitsTest, DefaultIsUnlimited) {
  const ChaseLimits limits;
  EXPECT_EQ(limits.max_tgd_fires, kUnlimited);
  EXPECT_EQ(limits.max_egd_steps, kUnlimited);
  EXPECT_EQ(limits.max_fresh_nulls, kUnlimited);
  EXPECT_EQ(limits.max_facts, kUnlimited);
  EXPECT_EQ(limits.max_normalize_fragments, kUnlimited);
  EXPECT_FALSE(limits.deadline.has_value());
}

// ---------------------------------------------------------------------------
// The c-chase under each budget dimension
// ---------------------------------------------------------------------------

CChaseOutcome CChaseWithLimits(ParsedProgram& program,
                               const ChaseLimits& limits) {
  CChaseOptions options;
  options.limits = limits;
  auto outcome =
      CChase(program.source, program.lifted, &program.universe, options);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  return std::move(outcome).value();
}

TEST(CChaseBudgetTest, UnlimitedSucceeds) {
  auto program = ParseOrDie(kPaperProgram);
  const CChaseOutcome outcome = CChaseWithLimits(*program, ChaseLimits{});
  EXPECT_EQ(outcome.kind, ChaseResultKind::kSuccess);
  EXPECT_EQ(outcome.abort_dimension, ResourceDimension::kNone);
}

TEST(CChaseBudgetTest, TgdFireBudgetAborts) {
  auto program = ParseOrDie(kPaperProgram);
  ChaseLimits limits;
  limits.max_tgd_fires = 1;
  const CChaseOutcome outcome = CChaseWithLimits(*program, limits);
  EXPECT_EQ(outcome.kind, ChaseResultKind::kAborted);
  EXPECT_EQ(outcome.abort_dimension, ResourceDimension::kTgdFires);
  // Partial stats are preserved: exactly the budgeted number of fires ran.
  EXPECT_EQ(outcome.stats.tgd_fires, 1u);
  EXPECT_FALSE(outcome.abort_reason.empty());
}

TEST(CChaseBudgetTest, EgdStepBudgetAborts) {
  auto program = ParseOrDie(kMergingProgram);
  // The unbudgeted run performs egd merges (m1's fresh salary nulls get
  // equated with S's salaries, m2's company nulls with E's companies); a
  // zero budget must abort.
  const CChaseOutcome full = CChaseWithLimits(*program, ChaseLimits{});
  ASSERT_GT(full.stats.egd_steps, 0u);

  auto rerun = ParseOrDie(kMergingProgram);
  ChaseLimits limits;
  limits.max_egd_steps = 0;
  const CChaseOutcome outcome = CChaseWithLimits(*rerun, limits);
  EXPECT_EQ(outcome.kind, ChaseResultKind::kAborted);
  EXPECT_EQ(outcome.abort_dimension, ResourceDimension::kEgdSteps);
}

TEST(CChaseBudgetTest, FreshNullBudgetAborts) {
  auto program = ParseOrDie(kPaperProgram);
  ChaseLimits limits;
  limits.max_fresh_nulls = 0;
  const CChaseOutcome outcome = CChaseWithLimits(*program, limits);
  EXPECT_EQ(outcome.kind, ChaseResultKind::kAborted);
  EXPECT_EQ(outcome.abort_dimension, ResourceDimension::kFreshNulls);
  EXPECT_EQ(outcome.stats.fresh_nulls, 0u);
}

TEST(CChaseBudgetTest, FactBudgetAborts) {
  auto program = ParseOrDie(kPaperProgram);
  ChaseLimits limits;
  limits.max_facts = 1;
  const CChaseOutcome outcome = CChaseWithLimits(*program, limits);
  EXPECT_EQ(outcome.kind, ChaseResultKind::kAborted);
  EXPECT_EQ(outcome.abort_dimension, ResourceDimension::kFacts);
}

TEST(CChaseBudgetTest, FragmentBudgetAborts) {
  auto program = ParseOrDie(kPaperProgram);
  ChaseLimits limits;
  limits.max_normalize_fragments = 1;
  const CChaseOutcome outcome = CChaseWithLimits(*program, limits);
  EXPECT_EQ(outcome.kind, ChaseResultKind::kAborted);
  EXPECT_EQ(outcome.abort_dimension, ResourceDimension::kNormalizeFragments);
}

TEST(CChaseBudgetTest, ExpiredDeadlineAborts) {
  auto program = ParseOrDie(kPaperProgram);
  ChaseLimits limits;
  limits.deadline = std::chrono::milliseconds(0);
  const CChaseOutcome outcome = CChaseWithLimits(*program, limits);
  EXPECT_EQ(outcome.kind, ChaseResultKind::kAborted);
  EXPECT_EQ(outcome.abort_dimension, ResourceDimension::kWallClock);
}

TEST(CChaseBudgetTest, GenerousBudgetMatchesUnlimited) {
  auto unlimited = ParseOrDie(kPaperProgram);
  const CChaseOutcome full = CChaseWithLimits(*unlimited, ChaseLimits{});
  ASSERT_EQ(full.kind, ChaseResultKind::kSuccess);

  auto budgeted = ParseOrDie(kPaperProgram);
  ChaseLimits limits;
  limits.max_tgd_fires = 100000;
  limits.max_egd_steps = 100000;
  limits.max_fresh_nulls = 100000;
  limits.max_facts = 100000;
  limits.max_normalize_fragments = 100000;
  const CChaseOutcome governed = CChaseWithLimits(*budgeted, limits);
  ASSERT_EQ(governed.kind, ChaseResultKind::kSuccess);
  EXPECT_EQ(governed.stats.tgd_fires, full.stats.tgd_fires);
  EXPECT_EQ(governed.stats.egd_steps, full.stats.egd_steps);
  EXPECT_EQ(governed.stats.fresh_nulls, full.stats.fresh_nulls);
  EXPECT_EQ(governed.target.size(), full.target.size());
}

// ---------------------------------------------------------------------------
// The relational per-snapshot chase
// ---------------------------------------------------------------------------

TEST(SnapshotChaseBudgetTest, EachDimensionAborts) {
  struct Case {
    ChaseLimits limits;
    ResourceDimension want;
  };
  std::vector<Case> cases;
  {
    Case c;
    c.limits.max_tgd_fires = 1;
    c.want = ResourceDimension::kTgdFires;
    cases.push_back(c);
  }
  {
    Case c;
    c.limits.max_fresh_nulls = 0;
    c.want = ResourceDimension::kFreshNulls;
    cases.push_back(c);
  }
  {
    Case c;
    c.limits.max_facts = 1;
    c.want = ResourceDimension::kFacts;
    cases.push_back(c);
  }
  for (const Case& c : cases) {
    // At 2015 both of Ada's and Bob's jobs need a fire and a fresh null.
    auto program = ParseOrDie(kMergingProgram);
    auto snapshot = SnapshotAt(program->source, 2015, &program->universe);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    auto outcome = ChaseSnapshot(*snapshot, program->mapping,
                                 &program->universe, {.limits = c.limits});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->kind, ChaseResultKind::kAborted);
    EXPECT_EQ(outcome->abort_dimension, c.want)
        << "dimension " << ResourceDimensionToString(c.want);
  }
}

TEST(SnapshotChaseBudgetTest, UnlimitedStillSucceeds) {
  auto program = ParseOrDie(kPaperProgram);
  auto snapshot = SnapshotAt(program->source, 2015, &program->universe);
  ASSERT_TRUE(snapshot.ok());
  auto outcome =
      ChaseSnapshot(*snapshot, program->mapping, &program->universe);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, ChaseResultKind::kSuccess);
}

// ---------------------------------------------------------------------------
// The abstract chase
// ---------------------------------------------------------------------------

TEST(AbstractChaseBudgetTest, BudgetAbortsWithPieceSpan) {
  auto program = ParseOrDie(kPaperProgram);
  auto ia = AbstractInstance::FromConcrete(program->source);
  ASSERT_TRUE(ia.ok()) << ia.status().ToString();
  ChaseLimits limits;
  limits.max_tgd_fires = 1;
  auto outcome =
      AbstractChase(*ia, program->mapping, &program->universe,
                    {.limits = limits});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->kind, ChaseResultKind::kAborted);
  EXPECT_EQ(outcome->abort_dimension, ResourceDimension::kTgdFires);
  EXPECT_TRUE(outcome->failure_span.has_value());
}

// ---------------------------------------------------------------------------
// Naive evaluation and certain answers
// ---------------------------------------------------------------------------

TEST(NaiveEvalBudgetTest, FragmentBudgetReturnsResourceExhausted) {
  auto program = ParseOrDie(kPaperProgram);
  const CChaseOutcome chase = CChaseWithLimits(*program, ChaseLimits{});
  ASSERT_EQ(chase.kind, ChaseResultKind::kSuccess);
  auto query = program->FindQuery("salaries");
  ASSERT_TRUE(query.ok());
  auto lifted = LiftUnionQuery(**query, program->schema);
  ASSERT_TRUE(lifted.ok()) << lifted.status().ToString();

  ChaseLimits limits;
  limits.max_normalize_fragments = 1;
  auto answers = NaiveEvaluateConcrete(*lifted, chase.target, limits);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted);
}

TEST(CertainAnswersBudgetTest, AbortedChaseYieldsNoAnswers) {
  auto program = ParseOrDie(kPaperProgram);
  auto query = program->FindQuery("salaries");
  ASSERT_TRUE(query.ok());
  auto lifted = LiftUnionQuery(**query, program->schema);
  ASSERT_TRUE(lifted.ok());

  ChaseLimits limits;
  limits.max_tgd_fires = 1;
  auto result = CertainAnswers(*lifted, program->source, program->lifted,
                               &program->universe, limits);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // An aborted chase must never be read as "no certain answers exist" — the
  // kind flags the answers as absent, not empty-and-certain.
  EXPECT_EQ(result->chase_kind, ChaseResultKind::kAborted);
  EXPECT_TRUE(result->answers.empty());
}

// ---------------------------------------------------------------------------
// Abort safety: a partial target is never a claimed solution
// ---------------------------------------------------------------------------

TEST(AbortSafetyTest, AbortedTargetIsSmallerThanSolution) {
  auto unlimited = ParseOrDie(kPaperProgram);
  const CChaseOutcome full = CChaseWithLimits(*unlimited, ChaseLimits{});
  ASSERT_EQ(full.kind, ChaseResultKind::kSuccess);

  auto budgeted = ParseOrDie(kPaperProgram);
  ChaseLimits limits;
  limits.max_tgd_fires = 1;
  const CChaseOutcome partial = CChaseWithLimits(*budgeted, limits);
  ASSERT_EQ(partial.kind, ChaseResultKind::kAborted);
  // The partial target is for diagnosis only; it cannot have caught up with
  // the real solution.
  EXPECT_LT(partial.target.size(), full.target.size());
}

// ---------------------------------------------------------------------------
// Ledger & resume: the guard's clock is steady and its budget transfers
// ---------------------------------------------------------------------------

TEST(ResourceLedgerTest, ConsumedIsMonotonic) {
  ChaseLimits limits;
  limits.deadline = std::chrono::minutes(10);
  ResourceGuard guard(limits);
  // Deadlines and elapsed time ride std::chrono::steady_clock, which never
  // goes backwards — a wall-clock adjustment mid-run must not inflate or
  // refund budget. Consumed() asserts the invariant internally; here we pin
  // the observable consequence across repeated samples.
  std::chrono::milliseconds last{-1};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(guard.CheckDeadline());
    const ResourceLedger ledger = guard.Consumed();
    EXPECT_GE(ledger.elapsed.count(), 0);
    EXPECT_GE(ledger.elapsed, last);
    last = ledger.elapsed;
  }
}

TEST(ResourceLedgerTest, ResumedGuardShrinksDeadline) {
  ChaseLimits limits;
  limits.deadline = std::chrono::milliseconds(10000);

  ResourceLedger consumed;
  consumed.elapsed = std::chrono::milliseconds(9999);
  ResourceGuard shrunk(limits, consumed);
  // 1ms left: CheckDeadline may pass briefly, but the ledger carries the
  // prior spend forward instead of restarting the clock.
  EXPECT_GE(shrunk.Consumed().elapsed, consumed.elapsed);

  consumed.elapsed = std::chrono::milliseconds(10001);
  ResourceGuard exhausted(limits, consumed);
  // The budget was already gone before the resume: tripped on construction.
  EXPECT_TRUE(exhausted.tripped());
  EXPECT_EQ(exhausted.dimension(), ResourceDimension::kWallClock);
  EXPECT_FALSE(exhausted.CheckDeadline());
}

TEST(ResourceLedgerTest, ConsumedCarriesPriorElapsedForward) {
  ResourceLedger consumed;
  consumed.elapsed = std::chrono::milliseconds(5000);
  ResourceGuard guard(ChaseLimits{}, consumed);
  // Even an unlimited resumed guard reports cumulative elapsed time, so a
  // chain of checkpoints never under-reports the run's true cost.
  EXPECT_GE(guard.Consumed().elapsed, std::chrono::milliseconds(5000));
}

// Deadline arithmetic saturates instead of overflowing (UBSan-checked in
// CI): a deadline far past the steady clock's range, a prior consumption at
// either end of the signed range, and a ledger that cannot grow further.
TEST(ResourceLedgerTest, DeadlineBeyondTheClockRangeNeverTrips) {
  for (const std::chrono::milliseconds deadline :
       {std::chrono::milliseconds(10000000000000),
        std::chrono::milliseconds::max()}) {
    ChaseLimits limits;
    limits.deadline = deadline;
    ResourceGuard guard(limits, ResourceLedger{});
    EXPECT_FALSE(guard.tripped());
    EXPECT_TRUE(guard.CheckDeadline());
  }
}

TEST(ResourceLedgerTest, NegativePriorElapsedCountsAsNone) {
  ChaseLimits limits;
  limits.deadline = std::chrono::milliseconds(1000);
  ResourceLedger consumed;
  consumed.elapsed =
      std::chrono::milliseconds::min() + std::chrono::milliseconds(1);
  ResourceGuard guard(limits, consumed);
  EXPECT_FALSE(guard.tripped());
  EXPECT_TRUE(guard.CheckDeadline());
  EXPECT_GE(guard.Consumed().elapsed, std::chrono::milliseconds(0));
}

TEST(ResourceLedgerTest, ElapsedSaturatesAtTheLargestCount) {
  ResourceLedger consumed;
  consumed.elapsed = std::chrono::milliseconds::max();
  ResourceGuard unlimited(ChaseLimits{}, consumed);
  // At least a millisecond of this guard's own time lands on top.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(unlimited.Consumed().elapsed, std::chrono::milliseconds::max());

  ChaseLimits limits;
  limits.deadline = std::chrono::milliseconds(1000);
  ResourceGuard exhausted(limits, consumed);
  EXPECT_TRUE(exhausted.tripped());
  EXPECT_EQ(exhausted.dimension(), ResourceDimension::kWallClock);
}

}  // namespace
}  // namespace tdx
