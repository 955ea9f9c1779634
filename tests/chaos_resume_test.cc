// Kill-and-recover chaos harness for the c-chase, the engine that
// checkpoints: arm a fault site, let the chase die at it, resume from the
// newest checkpoint, and require the final instance and statistics to be
// bit-identical to an uninterrupted run. The c-chase is deterministic, so a
// checkpoint at a safe point plus re-execution of the work lost after it
// must reproduce the exact same trajectory — any divergence is a checkpoint
// bug, not noise.
//
// The harness sweeps each site over increasing skip counts (the fault moves
// later into the run each time) until the run completes without hitting the
// site, so every dynamic occurrence of every site is exercised. The
// in-memory checkpointer runs at cadence 1: every safe point is retained,
// making the recovery window as tight as the engine allows.
//
// The last section turns the same checkpoints into hostile input: every
// line of a real checkpoint is mutated and re-sealed, and the decoder plus
// a resumed c-chase must answer each with a Status or an outcome.

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/checkpoint.h"
#include "src/common/resource.h"
#include "src/core/cchase.h"
#include "src/gen/workload.h"
#include "src/parser/parser.h"
#include "src/parser/printer.h"
#include "src/parser/serialize.h"
#include "src/relational/chase.h"
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

// The whole work record of a run: ChaseStats and both normalization
// records, as `tdx_cli chase --stats` prints them.
void ExpectSameStats(const CChaseOutcome& got, const std::string& want) {
  EXPECT_EQ(RenderChaseStats(got), want);
}

// ---------------------------------------------------------------------------
// C-chase: kill at every site, every occurrence; resume must be identical.
// ---------------------------------------------------------------------------

struct CChaseBaseline {
  std::string rendered;
  std::string stats;
};

CChaseBaseline RunCChaseBaseline() {
  auto program = ParseOrDie(kPaperProgram);
  auto outcome =
      CChase(program->source, program->lifted, &program->universe);
  EXPECT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->kind, ChaseResultKind::kSuccess);
  return {RenderConcreteInstance(outcome->target, program->universe),
          RenderChaseStats(*outcome)};
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
    ExpectSameStats(*resumed, baseline.stats);
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
// C-chase: a kill right after an egd rewrite. The loop-top checkpoint that
// follows a light egd merge carries the rewritten rows as dirty rows of the
// normalization watermark, so the resumed run takes the same incremental
// pass as the uninterrupted one.
// ---------------------------------------------------------------------------

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
  const std::string stats = RenderChaseStats(*base);

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
    EXPECT_EQ(RenderChaseStats(*resumed), stats) << "skip " << skip;
  }
  EXPECT_EQ(dirty_kills, want_dirty_kills);
}

// A cascade small enough to sweep, with one light egd rewrite per stage.
constexpr CascadeConfig kDirtyRowCascade{
    .stages = 4, .ballast_keys = 3, .ballast_dup = 2, .horizon = 4};

TEST(CChaseDirtyRowResumeTest, CascadeKillAfterEgdRewriteResumesIdentically) {
  // One loop top per stage follows a light egd rewrite.
  ExpectDirtyRowKillsResumeIdentically(
      [] { return MakeCascadeWorkload(kDirtyRowCascade); },
      kDirtyRowCascade.stages);
}

TEST(CChaseDirtyRowResumeTest, LoopTopCheckpointCarriesTheFrontierRows) {
  // The Hop row an egd merge rewrites joins the semi-naive frontier, and
  // the next round seeds it alone: that is how t2 fires. The loop-top
  // checkpoint after the merge carries the row, and the resumed run must
  // seed it too, or t2 never fires and the chase stops a stage early.
  auto base_w = MakeCascadeWorkload(kDirtyRowCascade);
  auto base = CChase(base_w->source, base_w->lifted, &base_w->universe);
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_EQ(base->kind, ChaseResultKind::kSuccess);
  const std::string table =
      RenderConcreteInstance(base->target, base_w->universe);
  const std::string stats = RenderChaseStats(*base);

  std::size_t kills_with_rows = 0;
  for (std::size_t skip = 0; skip < kMaxSkip; ++skip) {
    auto w = MakeCascadeWorkload(kDirtyRowCascade);
    Checkpointer checkpointer("", &w->schema, &w->universe);
    checkpointer.set_cadence(1);
    checkpointer.set_max_overhead(0);
    CChaseOptions options;
    options.checkpointer = &checkpointer;
    {
      ScopedFault fault("cchase/normalize-target", Injected(), skip);
      auto outcome = CChase(w->source, w->lifted, &w->universe, options);
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      if (outcome->kind == ChaseResultKind::kSuccess) break;
    }
    ASSERT_TRUE(checkpointer.latest().has_value());
    const ChaseCheckpoint& latest = *checkpointer.latest();
    if (latest.frontier_rows.empty()) continue;
    ++kills_with_rows;
    EXPECT_EQ(latest.phase, "loop-top");
    EXPECT_FALSE(latest.frontier_full);

    auto text = SerializeCheckpoint(latest, w->schema, w->universe);
    ASSERT_TRUE(text.ok()) << text.status();
    auto ck = ParseCheckpoint(*text, &w->schema, &w->universe);
    ASSERT_TRUE(ck.ok()) << ck.status();
    EXPECT_EQ(ck->frontier_rows, latest.frontier_rows);
    CChaseOptions resume_options;
    resume_options.resume_from = &*ck;
    auto resumed = CChase(w->source, w->lifted, &w->universe, resume_options);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    ASSERT_EQ(resumed->kind, ChaseResultKind::kSuccess);
    EXPECT_EQ(RenderConcreteInstance(resumed->target, w->universe), table)
        << "divergence after kill at skip " << skip;
    EXPECT_EQ(RenderChaseStats(*resumed), stats) << "skip " << skip;

    // The same checkpoint without its rows resumes to a different run.
    ChaseCheckpoint dropped = *ck;
    dropped.frontier_rows.clear();
    resume_options.resume_from = &dropped;
    auto short_run =
        CChase(w->source, w->lifted, &w->universe, resume_options);
    ASSERT_TRUE(short_run.ok()) << short_run.status();
    EXPECT_NE(RenderChaseStats(*short_run), stats) << "skip " << skip;
  }
  // One loop top per stage follows a light egd rewrite.
  EXPECT_EQ(kills_with_rows, kDirtyRowCascade.stages);
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

TEST(BudgetResumeTest, UnlimitedCheckpointResumesAgainstItsSpentCounts) {
  // The checkpoint of a run without limits carries the run's counts, so a
  // resume under a budget spends what the interrupted run already spent:
  // it aborts exactly when the uninterrupted run under that budget does.
  auto base_w = MakeCascadeWorkload(kDirtyRowCascade);
  auto base = CChase(base_w->source, base_w->lifted, &base_w->universe);
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_EQ(base->kind, ChaseResultKind::kSuccess);
  const std::size_t total = base->stats.tgd_fires;

  auto short_w = MakeCascadeWorkload(kDirtyRowCascade);
  CChaseOptions short_budget;
  short_budget.limits.max_tgd_fires = total - 1;
  auto uninterrupted = CChase(short_w->source, short_w->lifted,
                              &short_w->universe, short_budget);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status();
  ASSERT_EQ(uninterrupted->kind, ChaseResultKind::kAborted);
  ASSERT_EQ(uninterrupted->abort_dimension, ResourceDimension::kTgdFires);

  // Kill an unlimited run at its second loop top, after the first egd
  // rewrite, and resume through the durable encoding.
  auto w = MakeCascadeWorkload(kDirtyRowCascade);
  Checkpointer checkpointer("", &w->schema, &w->universe);
  checkpointer.set_cadence(1);
  checkpointer.set_max_overhead(0);
  CChaseOptions options;
  options.checkpointer = &checkpointer;
  {
    ScopedFault fault("cchase/normalize-target", Injected(), 1);
    auto killed = CChase(w->source, w->lifted, &w->universe, options);
    ASSERT_TRUE(killed.ok()) << killed.status();
    ASSERT_EQ(killed->kind, ChaseResultKind::kAborted);
  }
  ASSERT_TRUE(checkpointer.latest().has_value());
  auto text =
      SerializeCheckpoint(*checkpointer.latest(), w->schema, w->universe);
  ASSERT_TRUE(text.ok()) << text.status();
  auto ck = ParseCheckpoint(*text, &w->schema, &w->universe);
  ASSERT_TRUE(ck.ok()) << ck.status();
  // Fires on both sides of the kill.
  ASSERT_GT(ck->stats.tgd_fires, 0u);
  ASSERT_LT(ck->stats.tgd_fires, total);

  CChaseOptions resume_short;
  resume_short.resume_from = &*ck;
  resume_short.limits.max_tgd_fires = total - 1;
  auto aborted = CChase(w->source, w->lifted, &w->universe, resume_short);
  ASSERT_TRUE(aborted.ok()) << aborted.status();
  EXPECT_EQ(aborted->kind, ChaseResultKind::kAborted);
  EXPECT_EQ(aborted->abort_dimension, ResourceDimension::kTgdFires);
  EXPECT_EQ(aborted->abort_reason, uninterrupted->abort_reason);

  CChaseOptions resume_exact;
  resume_exact.resume_from = &*ck;
  resume_exact.limits.max_tgd_fires = total;
  auto finished = CChase(w->source, w->lifted, &w->universe, resume_exact);
  ASSERT_TRUE(finished.ok()) << finished.status();
  ASSERT_EQ(finished->kind, ChaseResultKind::kSuccess);
  EXPECT_EQ(RenderConcreteInstance(finished->target, w->universe),
            RenderConcreteInstance(base->target, base_w->universe));
  ExpectSameStats(*finished, RenderChaseStats(*base));
}

// ---------------------------------------------------------------------------
// Decoder robustness: a mutation sweep over a real checkpoint. Every line of
// a c-chase checkpoint that carries a frontier, a watermark and dirty rows
// is dropped, duplicated, truncated at each token, and has each numeral
// replaced by a boundary value; the checksum is re-sealed after each edit,
// since FNV-1a guards against torn files, not against a hostile writer.
// Every mutant must parse to a Status, or parse and resume the c-chase to a
// Status or an outcome — never a crash, an unchecked allocation, or UB.
// ---------------------------------------------------------------------------

// The newest checkpoint of a cascade run killed at the first hit of `site`
// whose checkpoint satisfies `wanted`, serialized.
template <typename Wanted>
std::string CascadeCheckpointText(const char* site, const Wanted& wanted) {
  for (std::size_t skip = 0; skip < kMaxSkip; ++skip) {
    auto w = MakeCascadeWorkload(kDirtyRowCascade);
    Checkpointer checkpointer("", &w->schema, &w->universe);
    checkpointer.set_cadence(1);
    checkpointer.set_max_overhead(0);
    CChaseOptions options;
    options.checkpointer = &checkpointer;
    {
      ScopedFault fault(site, Injected(), skip);
      auto outcome = CChase(w->source, w->lifted, &w->universe, options);
      EXPECT_TRUE(outcome.ok()) << outcome.status();
      if (!outcome.ok() || outcome->kind == ChaseResultKind::kSuccess) break;
    }
    if (!checkpointer.latest().has_value() ||
        !wanted(*checkpointer.latest())) {
      continue;
    }
    auto text =
        SerializeCheckpoint(*checkpointer.latest(), w->schema, w->universe);
    EXPECT_TRUE(text.ok()) << text.status();
    return text.ok() ? *text : std::string();
  }
  ADD_FAILURE() << "no such checkpoint before " << site;
  return std::string();
}

// `lines` joined into a checkpoint body and sealed with a fresh end line.
std::string Reseal(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  char checksum[17];
  std::snprintf(checksum, sizeof(checksum), "%016llx",
                static_cast<unsigned long long>(FingerprintText(text)));
  return text + "end " + checksum + "\n";
}

// The deterministic mutants of `text`, each re-sealed.
std::vector<std::string> Mutants(std::string_view text) {
  std::vector<std::string> lines;
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    lines.emplace_back(text.substr(0, nl));
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
  }
  lines.pop_back();  // the end line; Reseal writes a fresh one
  // 0, 2^32, 2^63 (the first value past a signed 64-bit count), 2^64 - 1
  // and 2^64 (past every unsigned field).
  static constexpr const char* kNumerals[] = {
      "0", "4294967296", "9223372036854775808", "18446744073709551615",
      "18446744073709551616"};
  std::vector<std::string> out;
  const auto emit = [&](std::size_t i, const std::vector<std::string>& with) {
    std::vector<std::string> mutated(lines.begin(), lines.begin() + i);
    mutated.insert(mutated.end(), with.begin(), with.end());
    mutated.insert(mutated.end(), lines.begin() + i + 1, lines.end());
    out.push_back(Reseal(mutated));
  };
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    emit(i, {});
    emit(i, {line, line});
    for (std::size_t pos = line.find(' '); pos != std::string::npos;
         pos = line.find(' ', pos + 1)) {
      emit(i, {line.substr(0, pos)});
    }
    for (std::size_t begin = 0; begin < line.size();) {
      if (line[begin] < '0' || line[begin] > '9') {
        ++begin;
        continue;
      }
      std::size_t end = begin;
      while (end < line.size() && line[end] >= '0' && line[end] <= '9') ++end;
      for (const char* numeral : kNumerals) {
        emit(i, {line.substr(0, begin) + numeral + line.substr(end)});
      }
      begin = end;
    }
  }
  return out;
}

TEST(CheckpointMutationTest, EveryMutantYieldsAStatusOrAnOutcome) {
  // A loop-top checkpoint right after an egd rewrite carries dirty rows and
  // the rewritten frontier rows; a checkpoint between two rounds carries
  // the round finder's index warmth.
  const std::string loop_top = CascadeCheckpointText(
      "cchase/normalize-target", [](const ChaseCheckpoint& ck) {
        return !ck.norm_dirty.empty() && !ck.frontier_rows.empty();
      });
  const std::string rounds = CascadeCheckpointText(
      "cchase/egd-fixpoint", [](const ChaseCheckpoint& ck) {
        return ck.phase == "rounds" && !ck.round_warmth.empty();
      });
  // Every line the sweep must reach: the counts the decoder sizes
  // allocations from, the rows it checks against the target, and the
  // consumed ledger the guard computes with.
  for (const char* kind :
       {"\nnulls ", "\nfrontier marks ", "\nfrontier-rows 1 ",
        "\negd-frontier marks ", "\nnorm-marks ", "\nnorm-labels ",
        "\nnorm-dirty ", "\nconsumed "}) {
    ASSERT_NE(loop_top.find(kind), std::string::npos) << kind;
  }
  ASSERT_NE(rounds.find("\nwarmth-round "), std::string::npos);
  std::vector<std::string> mutants = Mutants(loop_top);
  for (std::string& mutant : Mutants(rounds)) {
    mutants.push_back(std::move(mutant));
  }
  std::size_t parsed = 0;
  std::size_t resumed = 0;
  for (const std::string& mutant : mutants) {
    auto w = MakeCascadeWorkload(kDirtyRowCascade);
    auto ck = ParseCheckpoint(mutant, &w->schema, &w->universe);
    if (!ck.ok()) continue;
    ++parsed;
    // A deadline makes the guard do its arithmetic on the consumed ledger,
    // and a count budget makes it admit against the restored counts.
    CChaseOptions options;
    options.resume_from = &*ck;
    options.limits.deadline = std::chrono::minutes(10);
    options.limits.max_tgd_fires = 1000;
    auto outcome = CChase(w->source, w->lifted, &w->universe, options);
    if (outcome.ok()) ++resumed;
  }
  // Some mutants get past the decoder, and some of those resume.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(resumed, 0u);
}

}  // namespace
}  // namespace tdx
