#include "src/relational/chase_run.h"

#include <string>
#include <utility>

#include "src/analysis/planner.h"
#include "src/analysis/termination.h"

namespace tdx {

Status ChaseRun::Begin(const Mapping& mapping, const Schema& schema,
                       bool scheduled, ChaseStats* stats) {
  TerminationCertificate certificate =
      mapping.certificate.has_value()
          ? *mapping.certificate
          : CertifyTermination(mapping.target_tgds, schema);
  if (!certificate.guarantees_termination()) {
    return Status::InvalidArgument(
        std::string("refusing to ") +
        (engine_ == ChaseEngine::kCChase ? "c-chase" : "chase") +
        ": target tgds are not weakly acyclic (cycle " + certificate.witness +
        "); the chase might not terminate");
  }
  stats->certificate = std::move(certificate);

  // The schedule steers only provably-no-op skips; the fire order (and
  // with it every fresh-null id) is the flat one, so config fingerprints
  // carry no scheduling fields and checkpoints interchange between
  // scheduled and flat runs.
  if (scheduled) schedule = ScheduleFor(mapping, schema);
  stats->schedule_strata = schedule.has_value() ? schedule->stratum_count() : 0;
  const ChaseSchedule* plan_schedule = schedule.has_value() ? &*schedule
                                                            : nullptr;
  target_plan = BuildTgdRunPlan(mapping.target_tgds, plan_schedule);
  st_plan = BuildTgdRunPlan(mapping.st_tgds, nullptr);
  if (schedule.has_value()) {
    egds.reserve(schedule->live_egds.size());
    for (std::size_t index : schedule->live_egds) {
      egds.push_back(mapping.egds[index]);
    }
  } else {
    egds = mapping.egds;
  }
  return Status::OK();
}

struct ChaseRunScope::Metrics {
  Metrics(const std::string& prefix, bool normalizes)
      : runs(prefix + ".runs"),
        aborts(prefix + ".aborts"),
        rounds(prefix + ".rounds"),
        tgd_triggers(prefix + ".tgd_triggers"),
        tgd_fires(prefix + ".tgd_fires"),
        egd_steps(prefix + ".egd_steps"),
        fresh_nulls(prefix + ".fresh_nulls"),
        values_rewritten(prefix + ".values_rewritten"),
        skipped_egd_passes(prefix + ".skipped_egd_passes"),
        rows_indexed(prefix + ".rows_indexed"),
        strata(prefix + ".schedule_strata"),
        run_us(prefix + ".run_us") {
    if (normalizes) {
      skipped_normalize_passes.emplace(prefix + ".skipped_normalize_passes");
    }
  }

  obs::Counter runs;
  obs::Counter aborts;
  obs::Counter rounds;
  obs::Counter tgd_triggers;
  obs::Counter tgd_fires;
  obs::Counter egd_steps;
  obs::Counter fresh_nulls;
  obs::Counter values_rewritten;
  obs::Counter skipped_egd_passes;
  obs::Counter rows_indexed;
  std::optional<obs::Counter> skipped_normalize_passes;
  obs::Gauge strata;
  obs::Histogram run_us;
};

ChaseRunScope::Metrics* ChaseRunScope::MetricsFor(ChaseEngine engine) {
  static auto* snapshot = new Metrics("snapshot", false);
  static auto* cchase = new Metrics("cchase", true);
  return engine == ChaseEngine::kCChase ? cchase : snapshot;
}

ChaseRunScope::ChaseRunScope(ChaseEngine engine,
                             const ChaseStats* stats, const std::size_t* rounds,
                             const ChaseResultKind* kind)
    : metrics_(MetricsFor(engine)),
      stats_(stats),
      rounds_(rounds),
      kind_(kind),
      entry_(*stats),
      entry_rounds_(*rounds),
      latency_(&metrics_->run_us) {}

ChaseRunScope::~ChaseRunScope() {
  Metrics& m = *metrics_;
  m.runs.Inc();
  if (*kind_ == ChaseResultKind::kAborted) m.aborts.Inc();
  m.rounds.Inc(*rounds_ - entry_rounds_);
  m.tgd_triggers.Inc(stats_->tgd_triggers - entry_.tgd_triggers);
  m.tgd_fires.Inc(stats_->tgd_fires - entry_.tgd_fires);
  m.egd_steps.Inc(stats_->egd_steps - entry_.egd_steps);
  m.fresh_nulls.Inc(stats_->fresh_nulls - entry_.fresh_nulls);
  m.values_rewritten.Inc(stats_->values_rewritten - entry_.values_rewritten);
  m.skipped_egd_passes.Inc(stats_->skipped_egd_passes -
                           entry_.skipped_egd_passes);
  m.rows_indexed.Inc(stats_->search.rows_indexed - entry_.search.rows_indexed);
  if (m.skipped_normalize_passes.has_value()) {
    m.skipped_normalize_passes->Inc(stats_->skipped_normalize_passes -
                                    entry_.skipped_normalize_passes);
  }
  m.strata.Set(stats_->schedule_strata);
}

}  // namespace tdx
