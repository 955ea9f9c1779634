// The chase planner: static stratification of a mapping's rule set.
//
// PlanChase builds the rule-dependency graph described in
// analysis/schedule.h — "feeds" edges from constant-compatible head/body
// atom pairs (the same conservative test as the termination ladder's
// precedence analysis, Grahne & Onet), "interferes" edges from egds into
// rules whose bodies read null-carrying relations — condenses it into
// topologically ordered strata, and derives the skip decisions:
//
//   * liveness: a target tgd or egd is DEAD when some body atom can never
//     be derived — its relation is written by no rule head, or every head
//     writing it clashes with the atom on a constant. Facts only enter the
//     target through tgd heads, and neither egd merges (nulls only, never
//     constants) nor c-chase normalization (re-annotation and
//     fragmentation preserve relations and constant arguments) can create
//     a fact a dead body could match, so dead rules are sound to skip on
//     EVERY source instance.
//   * effect-free egds: both sides of the equality are pinned to one and
//     the same constant by every feeding head, so a firing can never merge
//     anything (and never fail). Skipping them drops whole egd-fixpoint
//     enumeration passes without changing a single fact.
//
// The planner is pure analysis: polynomial in the mapping size, never
// consults an instance, and its output is valid for every source.
//
// PlanChaseDetailed additionally returns the raw material for the
// TDX018-TDX024 diagnostics (analysis/analyzer.cc): interference pairs,
// rule cycles, declaration-order inversions, and relation read/write
// liveness, which need the graph but not the schedule.

#ifndef TDX_ANALYSIS_PLANNER_H_
#define TDX_ANALYSIS_PLANNER_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/analysis/schedule.h"
#include "src/relational/dependency.h"

namespace tdx {

/// PlanChase plus the graph-derived facts the analyzer turns into
/// diagnostics. Rule ids index ChaseSchedule::rules; "mapping index" means
/// the position within the Mapping vector of the rule's kind.
struct PlanDetails {
  ChaseSchedule schedule;
  /// (egd mapping index, target tgd mapping index): the egd may rewrite
  /// nulls inside facts the tgd body reads, forcing the engines to re-seed
  /// their semi-naive frontiers after every merging fixpoint (TDX020).
  std::vector<std::pair<std::size_t, std::size_t>> interference;
  /// Multi-rule dependency cycles (rule ids, one entry per SCC of size
  /// >= 2), in stratum order (TDX021).
  std::vector<std::vector<std::size_t>> cycles;
  /// Live target tgds declared before one of their feeders from a strictly
  /// earlier stratum position (mapping indices; TDX022).
  std::vector<std::size_t> declaration_inversions;
  /// Target relations written by some live head but read by no rule body;
  /// the analyzer adds query information before reporting (TDX023).
  std::vector<RelationId> written_never_read;
  /// Per rule id: every relation written by this rule or by any rule
  /// reachable from it through "feeds" edges — the downstream contribution
  /// used for the query-reachability lint (TDX024).
  std::vector<std::vector<RelationId>> downstream_relations;
};

/// Runs the planner over a validated mapping. Never fails: a mapping with
/// no rules yields an empty schedule.
PlanDetails PlanChaseDetailed(const Mapping& mapping, const Schema& schema);

/// Just the schedule (what ValidateAndCertifyMapping attaches to the
/// Mapping and the engines consume).
ChaseSchedule PlanChase(const Mapping& mapping, const Schema& schema);

/// The schedule `mapping` carries, or PlanChase's when it carries none
/// (hand-built mappings). Lifting carries the schedule over, so parsed
/// programs are planned once.
ChaseSchedule ScheduleFor(const Mapping& mapping, const Schema& schema);

}  // namespace tdx

#endif  // TDX_ANALYSIS_PLANNER_H_
