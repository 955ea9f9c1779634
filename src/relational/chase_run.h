// Run plumbing shared by the two chase engines, the snapshot chase
// (relational/chase.h) and the c-chase (core/cchase.h): the preamble each
// performs before its first step, and the scope that publishes a run's
// metrics however the run ends.

#ifndef TDX_RELATIONAL_CHASE_RUN_H_
#define TDX_RELATIONAL_CHASE_RUN_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/schedule.h"
#include "src/common/checkpoint.h"
#include "src/common/resource.h"
#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/relational/chase.h"

namespace tdx {

/// The state a chase run starts from, and the preamble that establishes it.
class ChaseRun {
 public:
  /// A fresh guard over `limits`, or on resume one already charged with the
  /// interrupted run's consumption.
  ChaseRun(const ChaseLimits& limits, const ChaseCheckpoint* resume);

  /// The rest of the preamble, in order:
  ///   * a resume checkpoint must have been written by `engine` under
  ///     `config`;
  ///   * the mapping's termination certificate (derived when absent) must
  ///     guarantee termination: an uncertified set of target tgds may chase
  ///     forever, so the run is refused before doing any work;
  ///   * on resume, `stats` and the null namespace are restored from the
  ///     safe point;
  ///   * under `scheduled` the schedule is resolved (ScheduleFor) and the
  ///     live egds selected; the target-tgd plan follows the schedule, and
  ///     is flat without one. The st plan is one group either way.
  /// The certificate and schedule_strata in `stats` are derived state:
  /// recomputed on every run, never taken from a checkpoint.
  Status Begin(const Mapping& mapping, const Schema& schema,
               ChaseCheckpoint::Engine engine, const std::string& config,
               bool scheduled, unsigned jobs, ChaseStats* stats,
               Universe* universe);

  /// True when the schedule proves every egd-fixpoint pass a no-op (every
  /// egd is dead or effect-free).
  bool SkipsEgdFixpoint() const {
    return schedule.has_value() && !schedule->egd_fixpoint_live();
  }

  ResourceGuard guard;
  /// The schedule the run consults; empty when the run is unscheduled.
  std::optional<ChaseSchedule> schedule;
  TgdRunPlan st_plan;
  TgdRunPlan target_plan;
  /// The egds the fixpoint runs: the schedule's live ones, or all of them.
  std::vector<Egd> egds;

 private:
  const ChaseCheckpoint* resume_;
};

/// Publishes a run's work to the process metrics, as bulk deltas of the
/// ChaseStats the engine maintains anyway, so the chase interior pays
/// nothing per trigger. Publishes when the engine returns by any path —
/// success, chase failure, abort, or Status error. Construct it after the
/// resume restore: the deltas then cover only this run's own work.
///
/// Names are prefixed "snapshot." or "cchase." by engine; only the c-chase
/// publishes skipped_normalize_passes. See docs/INTERNALS.md
/// ("Observability") for the name registry.
class ChaseRunScope {
 public:
  ChaseRunScope(ChaseCheckpoint::Engine engine, const ChaseStats* stats,
                const std::size_t* rounds, const ChaseResultKind* kind);
  ~ChaseRunScope();
  ChaseRunScope(const ChaseRunScope&) = delete;
  ChaseRunScope& operator=(const ChaseRunScope&) = delete;

 private:
  struct Metrics;
  static Metrics* MetricsFor(ChaseCheckpoint::Engine engine);

  Metrics* metrics_;
  const ChaseStats* stats_;
  const std::size_t* rounds_;
  const ChaseResultKind* kind_;
  ChaseStats entry_;
  std::size_t entry_rounds_;
  obs::ScopedLatency latency_;
};

}  // namespace tdx

#endif  // TDX_RELATIONAL_CHASE_RUN_H_
