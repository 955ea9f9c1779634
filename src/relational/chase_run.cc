#include "src/relational/chase_run.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

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
  // Datalog-first st phase (Carral, Dragoste, Kroetzsch, IJCAI 2017): full
  // st-tgds fire before existential ones, each group in declaration order.
  // Every st-tgd collects its triggers from the source, so this changes no
  // trigger, only which heads the restricted-chase witness check already
  // sees: a full rule's facts witness an existential rule's heads, which
  // then mint no null for an egd to merge away. Target-tgd rounds keep
  // declaration order — there a full rule collected before its existential
  // feeder fires would wait a round.
  st_plan = BuildTgdRunPlan(mapping.st_tgds, nullptr);
  std::stable_partition(st_plan.live.begin(), st_plan.live.end(),
                        [&](std::size_t i) {
                          return mapping.st_tgds[i].existential.empty();
                        });
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

namespace {

/// The metrics of a record's counter list under one prefix: a counter per
/// summed counter, a gauge per other published one.
template <class Record>
class RecordMetrics {
 public:
  explicit RecordMetrics(const std::string& prefix) {
    Record::ForEachCounter([&](const CounterSpec& spec) {
      if (spec.metric == nullptr) return;
      ids_.push_back(obs::MetricsRegistry::Instance().Register(
          prefix + spec.metric, spec.merge == CounterMerge::kSum
                                    ? obs::MetricKind::kCounter
                                    : obs::MetricKind::kGauge));
    });
  }

  /// Publishes a run that took the record from `entry` to `exit`.
  void Publish(const Record& entry, const Record& exit) const {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
    const std::uint32_t* id = ids_.data();
    Record::ForEachCounter(
        [&](const CounterSpec& spec, auto before, auto after) {
          if (spec.metric == nullptr) return;
          if (spec.merge == CounterMerge::kSum) {
            registry.Add(*id++, after - before);
          } else {
            registry.SetMax(*id++, after);
          }
        },
        entry, exit);
  }

 private:
  std::vector<std::uint32_t> ids_;
};

}  // namespace

struct ChaseRunScope::Metrics {
  explicit Metrics(const std::string& prefix)
      : runs(prefix + ".runs"),
        aborts(prefix + ".aborts"),
        rounds(prefix + ".rounds"),
        run_us(prefix + ".run_us"),
        stats(prefix + ".") {}

  obs::Counter runs;
  obs::Counter aborts;
  obs::Counter rounds;
  obs::Histogram run_us;
  RecordMetrics<ChaseStats> stats;
};

ChaseRunScope::Metrics* ChaseRunScope::MetricsFor(ChaseEngine engine) {
  static auto* snapshot = new Metrics("snapshot");
  static auto* cchase = new Metrics("cchase");
  return engine == ChaseEngine::kCChase ? cchase : snapshot;
}

ChaseRunScope::ChaseRunScope(ChaseEngine engine, const ChaseStats* stats,
                             const std::size_t* rounds,
                             const ChaseResultKind* kind,
                             const NormalizeStats* target_norm)
    : metrics_(MetricsFor(engine)),
      stats_(stats),
      target_norm_(target_norm),
      rounds_(rounds),
      kind_(kind),
      entry_(*stats),
      target_norm_entry_(target_norm != nullptr ? *target_norm
                                                : NormalizeStats{}),
      entry_rounds_(*rounds),
      latency_(&metrics_->run_us) {}

ChaseRunScope::~ChaseRunScope() {
  metrics_->runs.Inc();
  if (*kind_ == ChaseResultKind::kAborted) metrics_->aborts.Inc();
  metrics_->rounds.Inc(*rounds_ - entry_rounds_);
  metrics_->stats.Publish(entry_, *stats_);
  if (target_norm_ != nullptr) {
    static auto* norm =
        new RecordMetrics<NormalizeStats>("normalize.incremental.");
    norm->Publish(target_norm_entry_, *target_norm_);
  }
}

}  // namespace tdx
