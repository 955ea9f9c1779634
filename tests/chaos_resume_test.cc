// Kill-and-recover chaos harness: arm a fault site, let the engine die at
// it, resume from the newest checkpoint, and require the final instance and
// statistics to be bit-identical to an uninterrupted run. Every engine is
// deterministic, so a checkpoint at a safe point plus re-execution of the
// work lost after it must reproduce the exact same trajectory — any
// divergence is a checkpoint bug, not noise.
//
// The harness sweeps each site over increasing skip counts (the fault moves
// later into the run each time) until the run completes without hitting the
// site, so every dynamic occurrence of every site is exercised. The
// in-memory checkpointer runs at cadence 1: every safe point is retained,
// making the recovery window as tight as the engine allows.

#include <cstddef>
#include <string>

#include <gtest/gtest.h>

#include "src/common/checkpoint.h"
#include "src/common/resource.h"
#include "src/core/cchase.h"
#include "src/gen/workload.h"
#include "src/parser/parser.h"
#include "src/parser/printer.h"
#include "src/parser/serialize.h"
#include "src/relational/chase.h"
#include "src/temporal/abstract_chase.h"
#include "src/temporal/abstract_instance.h"
#include "tests/test_util.h"

namespace tdx {
namespace {

using ::tdx::testing::kPaperProgram;
using ::tdx::testing::ParseOrDie;

Status Injected() { return Status::Internal("injected fault"); }

std::string SiteTestName(
    const ::testing::TestParamInfo<const char*>& param_info) {
  std::string name = param_info.param;
  for (char& c : name) {
    if (c == '/' || c == '-') c = '_';
  }
  return name;
}

// Hard cap on the skip sweep; every run here hits each site far fewer times.
constexpr std::size_t kMaxSkip = 64;

void ExpectSameStats(const ChaseStats& got, const ChaseStats& want) {
  EXPECT_EQ(got.tgd_triggers, want.tgd_triggers);
  EXPECT_EQ(got.tgd_fires, want.tgd_fires);
  EXPECT_EQ(got.egd_steps, want.egd_steps);
  EXPECT_EQ(got.fresh_nulls, want.fresh_nulls);
  EXPECT_EQ(got.values_rewritten, want.values_rewritten);
}

// ---------------------------------------------------------------------------
// C-chase: kill at every site, every occurrence; resume must be identical.
// ---------------------------------------------------------------------------

struct CChaseBaseline {
  std::string rendered;
  ChaseStats stats;
};

CChaseBaseline RunCChaseBaseline() {
  auto program = ParseOrDie(kPaperProgram);
  auto outcome =
      CChase(program->source, program->lifted, &program->universe);
  EXPECT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->kind, ChaseResultKind::kSuccess);
  return {RenderConcreteInstance(outcome->target, program->universe),
          outcome->stats};
}

class CChaseChaosTest : public ::testing::TestWithParam<const char*> {
 protected:
  void TearDown() override { FaultRegistry::DisarmAll(); }
};

TEST_P(CChaseChaosTest, KillResumeIsBitIdentical) {
  const CChaseBaseline baseline = RunCChaseBaseline();
  const char* site = GetParam();

  std::size_t kills = 0;
  for (std::size_t skip = 0; skip < kMaxSkip; ++skip) {
    auto program = ParseOrDie(kPaperProgram);
    Checkpointer checkpointer("", &program->schema, &program->universe);
    checkpointer.set_cadence(1);
    checkpointer.set_max_overhead(0);
    CChaseOptions options;
    options.checkpointer = &checkpointer;

    bool killed = false;
    {
      ScopedFault fault(site, Injected(), skip);
      auto outcome =
          CChase(program->source, program->lifted, &program->universe,
                 options);
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      if (outcome->kind == ChaseResultKind::kSuccess) {
        // The fault moved past the last occurrence of the site: the sweep
        // has covered every dynamic hit. Sanity-check and stop.
        EXPECT_EQ(RenderConcreteInstance(outcome->target, program->universe),
                  baseline.rendered);
        break;
      }
      ASSERT_EQ(outcome->kind, ChaseResultKind::kAborted);
      EXPECT_EQ(outcome->abort_dimension, ResourceDimension::kInjectedFault);
      killed = true;
    }
    if (!killed) break;
    ++kills;

    // Recover: resume from the newest checkpoint (or from scratch when the
    // kill landed before the first safe point persisted).
    CChaseOptions resume_options;
    resume_options.resume_from = checkpointer.latest().has_value()
                                     ? &*checkpointer.latest()
                                     : nullptr;
    auto resumed = CChase(program->source, program->lifted,
                          &program->universe, resume_options);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    ASSERT_EQ(resumed->kind, ChaseResultKind::kSuccess);
    EXPECT_EQ(RenderConcreteInstance(resumed->target, program->universe),
              baseline.rendered)
        << "divergence after kill at " << site << "@" << skip;
    ExpectSameStats(resumed->stats, baseline.stats);
  }
  EXPECT_GT(kills, 0u) << "site " << site << " was never reached";
}

INSTANTIATE_TEST_SUITE_P(AllSites, CChaseChaosTest,
                         ::testing::Values("cchase/normalize-source",
                                           "cchase/tgd-phase",
                                           "cchase/normalize-target",
                                           "cchase/egd-fixpoint",
                                           "normalize/algorithm1"),
                         SiteTestName);

// ---------------------------------------------------------------------------
// Snapshot engine: same harness over the relational chase.
// ---------------------------------------------------------------------------

class SnapshotChaosTest : public ::testing::TestWithParam<const char*> {
 protected:
  void TearDown() override { FaultRegistry::DisarmAll(); }

  static EmploymentConfig Config() {
    EmploymentConfig cfg;
    cfg.num_people = 10;
    cfg.num_companies = 3;
    cfg.seed = 7;
    return cfg;
  }
};

TEST_P(SnapshotChaosTest, KillResumeIsBitIdentical) {
  const char* site = GetParam();

  // Baseline: chase the first piece's snapshot uninterrupted.
  auto base_w = MakeEmploymentWorkload(Config());
  auto base_ia = AbstractInstance::FromConcrete(base_w->source);
  ASSERT_TRUE(base_ia.ok()) << base_ia.status();
  ASSERT_FALSE(base_ia->pieces().empty());
  auto base_outcome = ChaseSnapshot(base_ia->pieces()[0].snapshot,
                                    base_w->mapping, &base_w->universe);
  ASSERT_TRUE(base_outcome.ok()) << base_outcome.status();
  ASSERT_EQ(base_outcome->kind, ChaseResultKind::kSuccess);
  const std::string baseline =
      RenderInstanceTables(base_outcome->target, base_w->universe);

  std::size_t kills = 0;
  for (std::size_t skip = 0; skip < kMaxSkip; ++skip) {
    auto w = MakeEmploymentWorkload(Config());
    auto ia = AbstractInstance::FromConcrete(w->source);
    ASSERT_TRUE(ia.ok()) << ia.status();
    Checkpointer checkpointer("", &w->schema, &w->universe);
    checkpointer.set_cadence(1);
    checkpointer.set_max_overhead(0);
    ChaseOptions options;
    options.checkpointer = &checkpointer;

    bool killed = false;
    {
      ScopedFault fault(site, Injected(), skip);
      auto outcome = ChaseSnapshot(ia->pieces()[0].snapshot, w->mapping,
                                   &w->universe, options);
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      if (outcome->kind == ChaseResultKind::kSuccess) {
        EXPECT_EQ(RenderInstanceTables(outcome->target, w->universe),
                  baseline);
        break;
      }
      ASSERT_EQ(outcome->kind, ChaseResultKind::kAborted);
      EXPECT_EQ(outcome->abort_dimension, ResourceDimension::kInjectedFault);
      killed = true;
    }
    if (!killed) break;
    ++kills;

    ChaseOptions resume_options;
    resume_options.resume_from = checkpointer.latest().has_value()
                                     ? &*checkpointer.latest()
                                     : nullptr;
    auto resumed = ChaseSnapshot(ia->pieces()[0].snapshot, w->mapping,
                                 &w->universe, resume_options);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    ASSERT_EQ(resumed->kind, ChaseResultKind::kSuccess);
    EXPECT_EQ(RenderInstanceTables(resumed->target, w->universe), baseline)
        << "divergence after kill at " << site << "@" << skip;
  }
  EXPECT_GT(kills, 0u) << "site " << site << " was never reached";
}

INSTANTIATE_TEST_SUITE_P(AllSites, SnapshotChaosTest,
                         ::testing::Values("chase/tgd-phase",
                                           "chase/egd-fixpoint"),
                         SiteTestName);

// ---------------------------------------------------------------------------
// Abstract engine: per-piece checkpoints, sequential and parallel.
// ---------------------------------------------------------------------------

class AbstractChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultRegistry::DisarmAll(); }

  static EmploymentConfig Config() {
    EmploymentConfig cfg;
    cfg.num_people = 8;
    cfg.num_companies = 3;
    cfg.seed = 11;
    return cfg;
  }

  struct Baseline {
    std::string rendered;
    ChaseStats stats;
  };

  static Baseline RunBaseline(unsigned jobs) {
    auto w = MakeEmploymentWorkload(Config());
    auto ia = AbstractInstance::FromConcrete(w->source);
    EXPECT_TRUE(ia.ok()) << ia.status();
    AbstractChaseOptions options;
    options.jobs = jobs;
    auto outcome = AbstractChase(*ia, w->mapping, &w->universe, options);
    EXPECT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_EQ(outcome->kind, ChaseResultKind::kSuccess);
    return {RenderAbstractInstance(outcome->target, w->universe),
            outcome->stats};
  }
};

TEST_F(AbstractChaosTest, SequentialMergeKillResumeIsBitIdentical) {
  const Baseline baseline = RunBaseline(1);

  std::size_t kills = 0;
  for (std::size_t skip = 0; skip < kMaxSkip; ++skip) {
    auto w = MakeEmploymentWorkload(Config());
    auto ia = AbstractInstance::FromConcrete(w->source);
    ASSERT_TRUE(ia.ok()) << ia.status();
    Checkpointer checkpointer("", &w->schema, &w->universe);
    checkpointer.set_cadence(1);
    checkpointer.set_max_overhead(0);
    AbstractChaseOptions options;
    options.checkpointer = &checkpointer;

    bool killed = false;
    {
      ScopedFault fault("abstract-chase/merge", Injected(), skip);
      auto outcome = AbstractChase(*ia, w->mapping, &w->universe, options);
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      if (outcome->kind == ChaseResultKind::kSuccess) {
        EXPECT_EQ(RenderAbstractInstance(outcome->target, w->universe),
                  baseline.rendered);
        break;
      }
      ASSERT_EQ(outcome->kind, ChaseResultKind::kAborted);
      EXPECT_EQ(outcome->abort_dimension, ResourceDimension::kInjectedFault);
      EXPECT_TRUE(outcome->failure_span.has_value());
      killed = true;
    }
    if (!killed) break;
    ++kills;

    AbstractChaseOptions resume_options;
    resume_options.resume_from = checkpointer.latest().has_value()
                                     ? &*checkpointer.latest()
                                     : nullptr;
    auto resumed =
        AbstractChase(*ia, w->mapping, &w->universe, resume_options);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    ASSERT_EQ(resumed->kind, ChaseResultKind::kSuccess);
    EXPECT_EQ(RenderAbstractInstance(resumed->target, w->universe),
              baseline.rendered)
        << "divergence after kill at abstract-chase/merge@" << skip;
    ExpectSameStats(resumed->stats, baseline.stats);
  }
  EXPECT_GT(kills, 0u);
}

TEST_F(AbstractChaosTest, ParallelDispatchDropResumesBitIdentical) {
  const Baseline baseline = RunBaseline(4);

  auto w = MakeEmploymentWorkload(Config());
  auto ia = AbstractInstance::FromConcrete(w->source);
  ASSERT_TRUE(ia.ok()) << ia.status();
  ASSERT_GT(ia->pieces().size(), 1u);
  Checkpointer checkpointer("", &w->schema, &w->universe);
  checkpointer.set_cadence(1);
  checkpointer.set_max_overhead(0);
  AbstractChaseOptions options;
  options.jobs = 4;
  options.checkpointer = &checkpointer;

  {
    // Drop one pool task mid-fan-out: the engine must surface a clean abort
    // with the stats of the pieces merged before the hole, never touch the
    // unfilled slot, and leak nothing (ASan/TSan-checked in CI).
    ScopedFault fault("thread-pool/dispatch", Injected());
    auto outcome = AbstractChase(*ia, w->mapping, &w->universe, options);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    ASSERT_EQ(outcome->kind, ChaseResultKind::kAborted);
    EXPECT_EQ(outcome->abort_dimension, ResourceDimension::kInjectedFault);
    EXPECT_TRUE(outcome->failure_span.has_value());
  }

  AbstractChaseOptions resume_options;
  resume_options.jobs = 4;
  resume_options.resume_from = checkpointer.latest().has_value()
                                   ? &*checkpointer.latest()
                                   : nullptr;
  auto resumed = AbstractChase(*ia, w->mapping, &w->universe, resume_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_EQ(resumed->kind, ChaseResultKind::kSuccess);
  EXPECT_EQ(RenderAbstractInstance(resumed->target, w->universe),
            baseline.rendered);
  ExpectSameStats(resumed->stats, baseline.stats);
}

// ---------------------------------------------------------------------------
// C-chase: a kill right after an egd rewrite. The loop-top checkpoint that
// follows a light egd merge carries the rewritten rows as dirty rows of the
// normalization watermark, so the resumed run takes the same incremental
// pass as the uninterrupted one.
// ---------------------------------------------------------------------------

// Everything `tdx_cli chase --stats` prints after the table.
std::string StatsLines(const CChaseOutcome& outcome) {
  const ChaseStats& s = outcome.stats;
  std::string out = "stats";
  for (const std::size_t v :
       {s.tgd_triggers, s.tgd_fires, s.egd_steps, s.fresh_nulls,
        s.values_rewritten, s.schedule_strata, s.skipped_egd_passes,
        s.skipped_normalize_passes, s.search.index_probes,
        s.search.index_candidates, s.search.full_scans}) {
    out += " " + std::to_string(v);
  }
  for (const NormalizeStats* n :
       {&outcome.source_norm_stats, &outcome.target_norm_stats}) {
    out += "\nnorm";
    for (const std::size_t v :
         {n->input_facts, n->output_facts, n->homomorphisms, n->groups,
          n->delta_facts, n->dirty_components, n->reused_components}) {
      out += " " + std::to_string(v);
    }
    out += n->partial ? " partial" : "";
  }
  return out;
}

// Kills at every loop top of the c-chase of make()'s program and resumes
// from the newest checkpoint through the durable tdxckpt encoding; requires
// `want_dirty_kills` of those checkpoints to carry dirty rows.
template <typename Make>
void ExpectDirtyRowKillsResumeIdentically(const Make& make,
                                          std::size_t want_dirty_kills) {
  auto base_w = make();
  auto base = CChase(base_w->source, base_w->lifted, &base_w->universe);
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_EQ(base->kind, ChaseResultKind::kSuccess);
  const std::string table =
      RenderConcreteInstance(base->target, base_w->universe);
  const std::string stats = StatsLines(*base);

  std::size_t dirty_kills = 0;
  for (std::size_t skip = 0; skip < kMaxSkip; ++skip) {
    auto w = make();
    Checkpointer checkpointer("", &w->schema, &w->universe);
    checkpointer.set_cadence(1);
    checkpointer.set_max_overhead(0);
    CChaseOptions options;
    options.checkpointer = &checkpointer;
    {
      // The fault fires at the loop top, right after the checkpoint that
      // follows each egd fixpoint.
      ScopedFault fault("cchase/normalize-target", Injected(), skip);
      auto outcome = CChase(w->source, w->lifted, &w->universe, options);
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      if (outcome->kind == ChaseResultKind::kSuccess) break;
      ASSERT_EQ(outcome->kind, ChaseResultKind::kAborted);
    }
    ASSERT_TRUE(checkpointer.latest().has_value());
    if (checkpointer.latest()->norm_dirty.empty()) continue;
    ++dirty_kills;

    auto text =
        SerializeCheckpoint(*checkpointer.latest(), w->schema, w->universe);
    ASSERT_TRUE(text.ok()) << text.status();
    auto ck = ParseCheckpoint(*text, &w->schema, &w->universe);
    ASSERT_TRUE(ck.ok()) << ck.status();
    EXPECT_EQ(ck->norm_dirty, checkpointer.latest()->norm_dirty);
    CChaseOptions resume_options;
    resume_options.resume_from = &*ck;
    auto resumed = CChase(w->source, w->lifted, &w->universe, resume_options);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    ASSERT_EQ(resumed->kind, ChaseResultKind::kSuccess);
    EXPECT_EQ(RenderConcreteInstance(resumed->target, w->universe), table)
        << "divergence after kill at skip " << skip;
    EXPECT_EQ(StatsLines(*resumed), stats) << "skip " << skip;
  }
  EXPECT_EQ(dirty_kills, want_dirty_kills);
}

TEST(CChaseDirtyRowResumeTest, CascadeKillAfterEgdRewriteResumesIdentically) {
  // One loop top per stage follows a light egd rewrite.
  const CascadeConfig cfg{
      .stages = 4, .ballast_keys = 3, .ballast_dup = 2, .horizon = 4};
  ExpectDirtyRowKillsResumeIdentically(
      [&] { return MakeCascadeWorkload(cfg); }, cfg.stages);
}

TEST(CChaseDirtyRowResumeTest, RewriteThatRegroupsResumesIdentically) {
  // e1 rewrites T("a", v) to T("a", "x"), which then joins N("x", "z1")
  // over [3, 6): the pass after the rewrite must cut the rewritten row, or
  // t1 never fires. A resumed run that lost the dirty rows would skip it.
  ExpectDirtyRowKillsResumeIdentically(
      [] {
        return ParseOrDie(R"(
          source A(k);
          source B(k, w);
          source M(v, z);
          target T(k, v);
          target K(k, w);
          target N(v, z);
          target R(k, z);
          tgd s1: A(k) -> exists v: T(k, v);
          tgd s2: B(k, w) -> K(k, w);
          tgd s3: M(v, z) -> N(v, z);
          ttgd t1: T(k, v) & N(v, z) -> R(k, z);
          egd e1: T(k, v) & K(k, w) -> v = w;
          fact A("a") @ [0, 10);
          fact A("b") @ [0, 10);
          fact B("a", "x") @ [0, 10);
          fact B("b", "y") @ [0, 10);
          fact M("x", "z1") @ [3, 6);
          fact M("q", "z2") @ [0, 10);
        )");
      },
      1);
}

// ---------------------------------------------------------------------------
// Budget: a resumed run charges the remaining allowance, not a fresh one.
// ---------------------------------------------------------------------------

TEST(BudgetResumeTest, ResumedRunChargesRemainingBudget) {
  // The paper program needs 8 tgd fires end to end; cap at 5.
  ChaseLimits limits;
  limits.max_tgd_fires = 5;

  auto program = ParseOrDie(kPaperProgram);
  Checkpointer checkpointer("", &program->schema, &program->universe);
  checkpointer.set_cadence(1);
  checkpointer.set_max_overhead(0);
  CChaseOptions options;
  options.limits = limits;
  options.checkpointer = &checkpointer;
  auto aborted =
      CChase(program->source, program->lifted, &program->universe, options);
  ASSERT_TRUE(aborted.ok()) << aborted.status();
  ASSERT_EQ(aborted->kind, ChaseResultKind::kAborted);
  EXPECT_EQ(aborted->abort_dimension, ResourceDimension::kTgdFires);
  ASSERT_TRUE(checkpointer.latest().has_value());

  // Same limits on resume: the run still cannot afford the remaining work —
  // a reset budget would have granted 5 fresh fires and finished.
  CChaseOptions same_budget;
  same_budget.limits = limits;
  same_budget.resume_from = &*checkpointer.latest();
  auto still_aborted = CChase(program->source, program->lifted,
                              &program->universe, same_budget);
  ASSERT_TRUE(still_aborted.ok()) << still_aborted.status();
  EXPECT_EQ(still_aborted->kind, ChaseResultKind::kAborted);
  EXPECT_EQ(still_aborted->abort_dimension, ResourceDimension::kTgdFires);

  // Raising the budget is the intended recovery: the resumed run completes
  // and matches an unrestricted run exactly.
  auto unrestricted = ParseOrDie(kPaperProgram);
  auto full = CChase(unrestricted->source, unrestricted->lifted,
                     &unrestricted->universe);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_EQ(full->kind, ChaseResultKind::kSuccess);

  CChaseOptions raised;
  raised.limits.max_tgd_fires = 100;
  raised.resume_from = &*checkpointer.latest();
  auto recovered =
      CChase(program->source, program->lifted, &program->universe, raised);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_EQ(recovered->kind, ChaseResultKind::kSuccess);
  EXPECT_EQ(RenderConcreteInstance(recovered->target, program->universe),
            RenderConcreteInstance(full->target, unrestricted->universe));
  EXPECT_EQ(recovered->stats.tgd_fires, full->stats.tgd_fires);
}

}  // namespace
}  // namespace tdx
