// Fault injection: every named TDX_FAULT_POINT / PokeFault site must be
// reachable from its engine's public entry point, and an injected fault must
// surface as a structured abort (kAborted with kInjectedFault, or the armed
// Status itself) — never as a claimed solution.

#include "src/common/resource.h"

#include <atomic>
#include <cstddef>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/thread_pool.h"
#include "src/core/cchase.h"
#include "src/core/naive_eval.h"
#include "src/core/normalize.h"
#include "src/core/query.h"
#include "src/parser/parser.h"
#include "src/temporal/abstract_instance.h"
#include "src/temporal/snapshot.h"
#include "tests/test_util.h"

namespace tdx {
namespace {

using ::tdx::testing::kPaperProgram;
using ::tdx::testing::ParseOrDie;

// Turns a site name into a valid gtest parameterized-test suffix.
std::string SiteTestName(
    const ::testing::TestParamInfo<const char*>& param_info) {
  std::string name = param_info.param;
  for (char& c : name) {
    if (c == '/' || c == '-') c = '_';
  }
  return name;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultRegistry::DisarmAll(); }

  static Status Injected() { return Status::Internal("injected fault"); }
};

// ---------------------------------------------------------------------------
// Registry mechanics
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, UnarmedRegistryIsInert) {
  EXPECT_FALSE(FaultRegistry::AnyArmed());
  EXPECT_TRUE(FaultRegistry::Fire("nonexistent/site").ok());
}

TEST_F(FaultInjectionTest, ArmedSiteFiresOnceThenDisarms) {
  FaultRegistry::Arm("test/site", Injected());
  EXPECT_TRUE(FaultRegistry::AnyArmed());
  EXPECT_EQ(FaultRegistry::Fire("test/site"), Injected());
  // Consumed: the second hit passes through.
  EXPECT_TRUE(FaultRegistry::Fire("test/site").ok());
  EXPECT_FALSE(FaultRegistry::AnyArmed());
  EXPECT_EQ(FaultRegistry::HitCount("test/site"), 2u);
}

TEST_F(FaultInjectionTest, SkipCountDelaysTheFault) {
  FaultRegistry::Arm("test/site", Injected(), /*skip_count=*/2);
  EXPECT_TRUE(FaultRegistry::Fire("test/site").ok());
  EXPECT_TRUE(FaultRegistry::Fire("test/site").ok());
  EXPECT_EQ(FaultRegistry::Fire("test/site"), Injected());
}

TEST_F(FaultInjectionTest, ScopedFaultDisarmsOnExit) {
  {
    ScopedFault fault("test/scoped", Injected());
    EXPECT_TRUE(FaultRegistry::AnyArmed());
  }
  EXPECT_FALSE(FaultRegistry::AnyArmed());
  EXPECT_TRUE(FaultRegistry::Fire("test/scoped").ok());
}

TEST_F(FaultInjectionTest, OtherSitesAreUnaffected) {
  ScopedFault fault("test/site-a", Injected());
  EXPECT_TRUE(FaultRegistry::Fire("test/site-b").ok());
  EXPECT_EQ(FaultRegistry::Fire("test/site-a"), Injected());
}

// ---------------------------------------------------------------------------
// The c-chase sites: each phase aborts with kInjectedFault, and an aborted
// chase never claims success.
// ---------------------------------------------------------------------------

class CChaseFaultTest : public FaultInjectionTest,
                        public ::testing::WithParamInterface<const char*> {};

TEST_P(CChaseFaultTest, SiteAbortsTheChase) {
  ScopedFault fault(GetParam(), Injected());
  auto program = ParseOrDie(kPaperProgram);
  auto outcome =
      CChase(program->source, program->lifted, &program->universe, {});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->kind, ChaseResultKind::kAborted) << GetParam();
  EXPECT_EQ(outcome->abort_dimension, ResourceDimension::kInjectedFault);
  EXPECT_NE(outcome->abort_reason.find("injected fault"), std::string::npos);
  EXPECT_GE(FaultRegistry::HitCount(GetParam()), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllSites, CChaseFaultTest,
                         ::testing::Values("cchase/normalize-source",
                                           "cchase/tgd-phase",
                                           "cchase/normalize-target",
                                           "cchase/egd-fixpoint"),
                         SiteTestName);

TEST_F(FaultInjectionTest, LatePhaseFaultPreservesPartialProgress) {
  ScopedFault fault("cchase/egd-fixpoint", Injected());
  auto program = ParseOrDie(kPaperProgram);
  auto outcome =
      CChase(program->source, program->lifted, &program->universe, {});
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->kind, ChaseResultKind::kAborted);
  // The fault hit after the tgd phase: stats and the partial target survive
  // for diagnosis.
  EXPECT_GT(outcome->stats.tgd_fires, 0u);
  EXPECT_GT(outcome->target.size(), 0u);
}

// ---------------------------------------------------------------------------
// The per-snapshot chase sites
// ---------------------------------------------------------------------------

class SnapshotChaseFaultTest
    : public FaultInjectionTest,
      public ::testing::WithParamInterface<const char*> {};

TEST_P(SnapshotChaseFaultTest, SiteAbortsTheChase) {
  ScopedFault fault(GetParam(), Injected());
  auto program = ParseOrDie(kPaperProgram);
  auto snapshot = SnapshotAt(program->source, 2015, &program->universe);
  ASSERT_TRUE(snapshot.ok());
  auto outcome =
      ChaseSnapshot(*snapshot, program->mapping, &program->universe);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->kind, ChaseResultKind::kAborted) << GetParam();
  EXPECT_EQ(outcome->abort_dimension, ResourceDimension::kInjectedFault);
}

INSTANTIATE_TEST_SUITE_P(AllSites, SnapshotChaseFaultTest,
                         ::testing::Values("chase/tgd-phase",
                                           "chase/egd-fixpoint"),
                         SiteTestName);

// ---------------------------------------------------------------------------
// Normalizer sites (fire only under a governed run, i.e. with a guard)
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, NaiveNormalizeSiteTripsTheGuard) {
  ScopedFault fault("normalize/naive", Injected());
  auto program = ParseOrDie(kPaperProgram);
  ResourceGuard guard;
  NormalizeStats stats;
  (void)NaiveNormalize(program->source, &stats, &guard);
  EXPECT_TRUE(guard.tripped());
  EXPECT_EQ(guard.dimension(), ResourceDimension::kInjectedFault);
}

TEST_F(FaultInjectionTest, Algorithm1SiteTripsTheGuard) {
  ScopedFault fault("normalize/algorithm1", Injected());
  auto program = ParseOrDie(kPaperProgram);
  ResourceGuard guard;
  NormalizeStats stats;
  (void)Normalize(program->source, program->lifted.TgdBodies(), &stats,
                  &guard);
  EXPECT_TRUE(guard.tripped());
  EXPECT_EQ(guard.dimension(), ResourceDimension::kInjectedFault);
}

TEST_F(FaultInjectionTest, UngovernedNormalizeIgnoresTheSite) {
  // Without a guard there is no abort channel; the site must not fire (and
  // must not crash).
  ScopedFault fault("normalize/naive", Injected());
  auto program = ParseOrDie(kPaperProgram);
  NormalizeStats stats;
  const ConcreteInstance out =
      NaiveNormalize(program->source, &stats, nullptr);
  EXPECT_GT(out.size(), 0u);
}

// ---------------------------------------------------------------------------
// Status-returning sites: naive evaluation and the parser
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, NaiveEvalSiteReturnsTheArmedStatus) {
  auto program = ParseOrDie(kPaperProgram);
  auto chase = CChase(program->source, program->lifted, &program->universe, {});
  ASSERT_TRUE(chase.ok());
  ASSERT_EQ(chase->kind, ChaseResultKind::kSuccess);
  auto query = program->FindQuery("salaries");
  ASSERT_TRUE(query.ok());
  auto lifted = LiftUnionQuery(**query, program->schema);
  ASSERT_TRUE(lifted.ok());

  ScopedFault fault("naive-eval/normalize", Injected());
  auto answers = NaiveEvaluateConcrete(*lifted, chase->target);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status(), Injected());
}

TEST_F(FaultInjectionTest, ParserSiteReturnsTheArmedStatus) {
  ScopedFault fault("parser/statement", Injected());
  auto parsed = ParseProgram(kPaperProgram);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status(), Injected());
}

TEST_F(FaultInjectionTest, ParserSiteWithSkipCountFailsMidProgram) {
  // Skip the first three statements, then fail: proves the site is hit once
  // per statement and the skip machinery composes with a real engine.
  ScopedFault fault("parser/statement", Injected(), /*skip_count=*/3);
  auto parsed = ParseProgram(kPaperProgram);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status(), Injected());
  EXPECT_GE(FaultRegistry::HitCount("parser/statement"), 4u);
}

// ---------------------------------------------------------------------------
// Infrastructure sites: dispatch drops and merge-seam kills
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, DispatchSiteDropsExactlyOneTaskInline) {
  ScopedFault fault("thread-pool/dispatch", Injected());
  std::vector<char> ran(8, 0);
  ParallelFor(1, ran.size(), [&](std::size_t i) { ran[i] = 1; });
  std::size_t executed = 0;
  for (const char r : ran) executed += static_cast<std::size_t>(r);
  // One task was "killed" between being claimed and running; the rest ran.
  EXPECT_EQ(executed, ran.size() - 1);
}

TEST_F(FaultInjectionTest, DispatchSiteDropsExactlyOneTaskPooled) {
  ScopedFault fault("thread-pool/dispatch", Injected());
  std::vector<std::atomic<char>> ran(16);
  for (auto& r : ran) r.store(0);
  ParallelFor(4, ran.size(), [&](std::size_t i) { ran[i].store(1); });
  std::size_t executed = 0;
  for (const auto& r : ran) executed += static_cast<std::size_t>(r.load());
  EXPECT_EQ(executed, ran.size() - 1);
}

TEST_F(FaultInjectionTest, RegisteredSiteListStaysReachable) {
  // Every site in kRegisteredFaultSites must still exist in the codebase;
  // the chaos harness (tests/chaos_resume_test.cc, CI chaos-resume) sweeps
  // this list. A site renamed without updating the registry would silently
  // drop out of the sweep — pin the count and spot-check membership.
  std::size_t n = 0;
  bool has_dispatch = false, has_incremental = false;
  for (const std::string_view site : kRegisteredFaultSites) {
    ++n;
    if (site == "thread-pool/dispatch") has_dispatch = true;
    if (site == "normalize/incremental") has_incremental = true;
  }
  EXPECT_EQ(n, 12u);
  EXPECT_TRUE(has_dispatch);
  EXPECT_TRUE(has_incremental);
}

}  // namespace
}  // namespace tdx
