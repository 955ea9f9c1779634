// A run's work record and its metrics are one account: every cchase.* and
// normalize.incremental.* metric a c-chase publishes equals the record
// field it mirrors (the growth of that field, for a resumed run), and the
// record's counter list is what pairs them.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "src/common/checkpoint.h"
#include "src/core/cchase.h"
#include "src/gen/workload.h"
#include "src/obs/metrics.h"

namespace tdx {
namespace {

using obs::MetricKind;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::MetricValue;

std::unique_ptr<Workload> Cascade() {
  return MakeCascadeWorkload(CascadeConfig{
      .stages = 6, .ballast_keys = 8, .ballast_dup = 3, .horizon = 8});
}

// The value the metric `name` must have: the field whose list entry names
// it (under `prefix`), less its value at the run's start for a summed
// counter. False when no entry of `record`'s list names the metric.
template <class Record>
bool Expected(std::string_view name, std::string_view prefix,
              const Record& record, const Record& start,
              std::uint64_t* want) {
  if (name.substr(0, prefix.size()) != prefix) return false;
  bool found = false;
  Record::ForEachCounter(
      [&](const CounterSpec& spec, const auto& now, const auto& before) {
        if (spec.metric == nullptr ||
            name.substr(prefix.size()) != spec.metric) {
          return;
        }
        found = true;
        *want = spec.merge == CounterMerge::kSum
                    ? static_cast<std::uint64_t>(now - before)
                    : static_cast<std::uint64_t>(now);
      },
      record, start);
  return found;
}

// Checks every cchase.* and normalize.incremental.* counter and gauge in
// the registry against the run's record; `start` holds what the run began
// from (all zero for a fresh run, the checkpoint's counts for a resume).
void ExpectMetricsMatch(const CChaseOutcome& outcome, const ChaseStats& start,
                        const NormalizeStats& norm_start) {
  const MetricsSnapshot snapshot = MetricsRegistry::Instance().Snapshot();
  std::size_t checked = 0;
  for (const MetricValue& metric : snapshot.metrics) {
    if (metric.kind == MetricKind::kHistogram) continue;
    const std::string_view name = metric.name;
    if (name == "cchase.runs" || name == "cchase.aborts" ||
        name == "cchase.rounds") {
      continue;  // properties of the run, not of its record
    }
    const bool cchase = name.substr(0, 7) == "cchase.";
    const bool norm = name.substr(0, 22) == "normalize.incremental.";
    if (!cchase && !norm) continue;
    std::uint64_t want = 0;
    const bool found =
        cchase ? Expected(name, "cchase.", outcome.stats, start, &want)
               : Expected(name, "normalize.incremental.",
                          outcome.target_norm_stats, norm_start, &want);
    ASSERT_TRUE(found) << name << " mirrors no field of the work record";
    EXPECT_EQ(metric.value, want) << name;
    ++checked;
  }
  // The names perfbench and the docs rely on, and the list's own additions.
  for (const char* name :
       {"cchase.tgd_triggers", "cchase.tgd_fires", "cchase.egd_steps",
        "cchase.fresh_nulls", "cchase.facts_inserted",
        "cchase.values_rewritten", "cchase.skipped_egd_passes",
        "cchase.skipped_normalize_passes", "cchase.schedule_strata",
        "cchase.index_probes", "cchase.index_candidates", "cchase.full_scans",
        "cchase.rows_indexed", "normalize.incremental.passes",
        "normalize.incremental.full_passes",
        "normalize.incremental.homomorphisms", "normalize.incremental.groups",
        "normalize.incremental.delta_facts",
        "normalize.incremental.dirty_components",
        "normalize.incremental.reused_components",
        "normalize.incremental.rows_visited"}) {
    EXPECT_NE(snapshot.Find(name), nullptr) << name;
  }
  EXPECT_EQ(checked, 21u);
}

TEST(WorkRecordTest, MetricsEqualTheRecordOfAFreshRun) {
  auto w = Cascade();
  MetricsRegistry::Instance().Reset();
  auto outcome = CChase(w->source, w->lifted, &w->universe);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_EQ(outcome->kind, ChaseResultKind::kSuccess);
  ASSERT_GT(outcome->stats.egd_steps, 0u);
  ASSERT_GT(outcome->target_norm_stats.passes, 1u);
  ExpectMetricsMatch(*outcome, ChaseStats{}, NormalizeStats{});
}

TEST(WorkRecordTest, MetricsOfAResumeEqualTheRecordLessTheCheckpoint) {
  ChaseStats total;
  {
    auto w = Cascade();
    auto full = CChase(w->source, w->lifted, &w->universe);
    ASSERT_TRUE(full.ok()) << full.status();
    total = full->stats;
  }
  // Stop the run halfway through its egd steps, one per stage; its newest
  // checkpoint is then a mid-loop one, with work on both records.
  auto w = Cascade();
  Checkpointer checkpointer("", &w->schema, &w->universe);
  checkpointer.set_cadence(1);
  checkpointer.set_max_overhead(0);
  CChaseOptions options;
  options.checkpointer = &checkpointer;
  options.limits.max_egd_steps = total.egd_steps / 2;
  auto cut = CChase(w->source, w->lifted, &w->universe, options);
  ASSERT_TRUE(cut.ok()) << cut.status();
  ASSERT_EQ(cut->kind, ChaseResultKind::kAborted);
  ASSERT_TRUE(checkpointer.latest().has_value());
  const ChaseCheckpoint& ck = *checkpointer.latest();
  ASSERT_GT(ck.stats.egd_steps, 0u);
  ASSERT_GT(ck.target_norm_stats.passes, 1u);

  MetricsRegistry::Instance().Reset();
  CChaseOptions resume;
  resume.resume_from = &ck;
  auto resumed = CChase(w->source, w->lifted, &w->universe, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_EQ(resumed->kind, ChaseResultKind::kSuccess);
  ASSERT_EQ(resumed->stats.egd_steps, total.egd_steps);
  ExpectMetricsMatch(*resumed, ck.stats, ck.target_norm_stats);
}

}  // namespace
}  // namespace tdx
