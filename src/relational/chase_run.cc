#include "src/relational/chase_run.h"

#include <numeric>
#include <utility>

#include "src/analysis/planner.h"
#include "src/analysis/termination.h"

namespace tdx {

ChaseRun::ChaseRun(const ChaseLimits& limits, const ChaseCheckpoint* resume)
    : guard(limits, resume != nullptr ? resume->consumed : ResourceLedger{}),
      resume_(resume) {}

Status ChaseRun::Begin(const Mapping& mapping, const Schema& schema,
                       ChaseCheckpoint::Engine engine,
                       const std::string& config, bool scheduled,
                       unsigned jobs, ChaseStats* stats, Universe* universe) {
  const bool cchase = engine == ChaseCheckpoint::Engine::kCChase;
  if (resume_ != nullptr) {
    if (resume_->engine != engine) {
      return Status::InvalidArgument(
          std::string("checkpoint was not written by the ") +
          (cchase ? "c-chase" : "snapshot chase") + " engine");
    }
    if (resume_->config != config) {
      return Status::InvalidArgument(
          "checkpoint was written under different execution options (\"" +
          resume_->config + "\" vs \"" + config + "\")");
    }
  }
  TerminationCertificate certificate =
      mapping.certificate.has_value()
          ? *mapping.certificate
          : CertifyTermination(mapping.target_tgds, schema);
  if (!certificate.guarantees_termination()) {
    return Status::InvalidArgument(
        std::string("refusing to ") + (cchase ? "c-chase" : "chase") +
        ": target tgds are not weakly acyclic (cycle " + certificate.witness +
        "); the chase might not terminate");
  }
  if (resume_ != nullptr) {
    *stats = resume_->stats;
    universe->RestoreNullState(resume_->next_null, resume_->null_names);
  }
  stats->certificate = std::move(certificate);

  // The schedule steers only provably-no-op skips and parallel trigger
  // collection; the fire order (and with it every fresh-null id) is the
  // flat one, so config fingerprints carry no scheduling fields and
  // checkpoints interchange between scheduled and flat runs.
  if (scheduled) schedule = ScheduleFor(mapping, schema);
  stats->schedule_strata = schedule.has_value() ? schedule->stratum_count() : 0;
  const ChaseSchedule* plan_schedule = schedule.has_value() ? &*schedule
                                                            : nullptr;
  target_plan = BuildTgdRunPlan(mapping.target_tgds, plan_schedule, jobs);
  // The st phase collects from the immutable source, where no fire can
  // create a trigger: every st tgd shares one group, which collects
  // concurrently under `jobs`.
  st_plan = BuildTgdRunPlan(mapping.st_tgds, nullptr, jobs);
  st_plan.groups.assign(1, std::vector<std::size_t>(mapping.st_tgds.size()));
  std::iota(st_plan.groups[0].begin(), st_plan.groups[0].end(), 0);
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
  std::optional<obs::Counter> skipped_normalize_passes;
  obs::Gauge strata;
  obs::Histogram run_us;
};

ChaseRunScope::Metrics* ChaseRunScope::MetricsFor(
    ChaseCheckpoint::Engine engine) {
  static auto* snapshot = new Metrics("snapshot", false);
  static auto* cchase = new Metrics("cchase", true);
  return engine == ChaseCheckpoint::Engine::kCChase ? cchase : snapshot;
}

ChaseRunScope::ChaseRunScope(ChaseCheckpoint::Engine engine,
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
  if (m.skipped_normalize_passes.has_value()) {
    m.skipped_normalize_passes->Inc(stats_->skipped_normalize_passes -
                                    entry_.skipped_normalize_passes);
  }
  m.strata.Set(stats_->schedule_strata);
}

}  // namespace tdx
