// Run plumbing shared by the two chase engines, the snapshot chase
// (relational/chase.h) and the c-chase (core/cchase.h): the preamble each
// performs before its first step, and the scope that publishes a run's
// metrics however the run ends. Checkpoint/resume is the c-chase's own.

#ifndef TDX_RELATIONAL_CHASE_RUN_H_
#define TDX_RELATIONAL_CHASE_RUN_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/analysis/schedule.h"
#include "src/common/resource.h"
#include "src/common/status.h"
#include "src/core/normalize.h"
#include "src/obs/metrics.h"
#include "src/relational/chase.h"

namespace tdx {

/// The engines that share this plumbing; names their refusals and metrics.
enum class ChaseEngine : std::uint8_t { kSnapshot, kCChase };

/// The state a chase run starts from, and the preamble that establishes it.
class ChaseRun {
 public:
  /// A guard over `limits` whose deadline has `consumed` already spent (a
  /// resumed c-chase passes the interrupted run's elapsed time; a fresh run
  /// nothing).
  ChaseRun(ChaseEngine engine, const ChaseLimits& limits,
           const ResourceLedger& consumed = {})
      : guard(limits, consumed), engine_(engine) {}

  /// The rest of the preamble, in order:
  ///   * the mapping's termination certificate (derived when absent) must
  ///     guarantee termination: an uncertified set of target tgds may chase
  ///     forever, so the run is refused before doing any work;
  ///   * under `scheduled` the schedule is resolved (ScheduleFor) and the
  ///     live egds selected; the target-tgd plan follows the schedule, and
  ///     is flat without one. The st plan is the same either way: every
  ///     st-tgd is live, full ones first, each group in declaration order.
  /// The certificate and schedule_strata in `stats` are derived state:
  /// recomputed on every run, never taken from a checkpoint, so a resumed
  /// run restores `stats` before calling this.
  Status Begin(const Mapping& mapping, const Schema& schema, bool scheduled,
               ChaseStats* stats);

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
  ChaseEngine engine_;
};

/// The one scope that publishes a run's metrics, when the engine returns
/// by any path (success, chase failure, abort, or Status error): under the
/// engine's prefix ("snapshot." or "cchase.") the run's `runs`, `aborts`,
/// `rounds` and `run_us`, and the growth of its ChaseStats; for the
/// c-chase also the growth of its target normalization record, as
/// normalize.incremental.*. The record metrics are read off the records'
/// counter lists (common/counters.h), so the chase interior pays nothing
/// per trigger, and their handles are registered once per process. A
/// resumed c-chase constructs the scope after the resume restore: the
/// deltas then cover only its own work. See docs/INTERNALS.md
/// ("Observability") for the name registry.
class ChaseRunScope {
 public:
  ChaseRunScope(ChaseEngine engine, const ChaseStats* stats,
                const std::size_t* rounds, const ChaseResultKind* kind,
                const NormalizeStats* target_norm = nullptr);
  ~ChaseRunScope();
  ChaseRunScope(const ChaseRunScope&) = delete;
  ChaseRunScope& operator=(const ChaseRunScope&) = delete;

 private:
  struct Metrics;
  static Metrics* MetricsFor(ChaseEngine engine);

  Metrics* metrics_;
  const ChaseStats* stats_;
  const NormalizeStats* target_norm_;
  const std::size_t* rounds_;
  const ChaseResultKind* kind_;
  ChaseStats entry_;
  NormalizeStats target_norm_entry_;
  std::size_t entry_rounds_;
  obs::ScopedLatency latency_;
};

}  // namespace tdx

#endif  // TDX_RELATIONAL_CHASE_RUN_H_
