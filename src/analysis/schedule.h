// Chase schedules: the executable certificate produced by the chase
// planner (analysis/planner.h).
//
// The planner builds a rule-dependency graph over every rule of a Mapping
// (s-t tgds, target tgds, egds): a "feeds" edge a -> b when a head atom of
// a is constant-compatible with a body atom of b (firing a may create a
// trigger for b), and an "interferes" edge e -> r when egd e may merge
// nulls inside facts that r's body reads (an egd rewrite can create
// triggers no insertion ever would). The SCC condensation of that graph,
// topologically ordered, is the schedule's strata.
//
// A ChaseSchedule is consumed by all three engines. It never changes WHAT
// the chase computes — only which provably-no-op work is skipped:
//
//   * dead rules (some body atom can never be derived) are never visited;
//   * egd-fixpoint passes are skipped outright when every egd is dead or
//     effect-free, and otherwise run over the live egds only.
//
// Engines deliberately do NOT reorder rule firing by stratum: fresh-null
// identities depend on the global fire order, and bit-identical output
// versus the unscheduled chase is part of the engines' contract (the
// chaos-resume harness diffs outputs byte-for-byte). When declarations are
// already topologically ordered — the common case, and what TDX022 nudges
// programs toward — declaration-order rounds visit the strata in
// topological order anyway.
//
// This header is deliberately a leaf (no dependency on relational/), like
// analysis/certificate.h: the schedule is embedded in Mapping and travels
// with it into every engine. All display data is pre-rendered to strings
// at plan time, so the renderers need no Schema or Universe.

#ifndef TDX_ANALYSIS_SCHEDULE_H_
#define TDX_ANALYSIS_SCHEDULE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/json.h"

namespace tdx {

enum class ScheduleRuleKind { kStTgd, kTargetTgd, kEgd };

/// Stable lower-case token ("st-tgd", "target-tgd", "egd").
std::string_view ScheduleRuleKindName(ScheduleRuleKind kind);

/// One rule of the mapping as a node of the dependency graph.
struct ScheduleRule {
  ScheduleRuleKind kind = ScheduleRuleKind::kStTgd;
  /// Position within the Mapping vector of its kind.
  std::size_t index = 0;
  /// Display name: the declared label, or "#k" (1-based) when unlabeled.
  std::string name;
  /// Index into ChaseSchedule::strata.
  std::size_t stratum = 0;
  /// False when some body atom can never be derived: no chase over any
  /// source instance ever fires this rule, so engines skip it entirely.
  bool live = true;
  /// Egds only: the rule may fire, but both sides of its equality are
  /// pinned to the same constant, so no firing ever merges anything.
  bool effect_free = false;
  /// Why the rule is skipped (live == false or effect_free); else empty.
  std::string skip_reason;
};

enum class ScheduleEdgeReason {
  kFeeds,       ///< a head atom of `from` may match a body atom of `to`
  kInterferes,  ///< egd `from` may rewrite nulls in facts read by `to`
};

/// A justification edge of the dependency graph, between rule ids (indices
/// into ChaseSchedule::rules).
struct ScheduleEdge {
  std::size_t from = 0;
  std::size_t to = 0;
  ScheduleEdgeReason reason = ScheduleEdgeReason::kFeeds;
  /// The relation carrying the edge, by name.
  std::string relation;
};

/// The planner's output: strata and skip decisions, with the graph that
/// justifies them.
struct ChaseSchedule {
  /// Every rule of the mapping: st-tgds, then target tgds, then egds, each
  /// block in declaration order. Rule ids used by `edges` and `strata` are
  /// indices into this vector.
  std::vector<ScheduleRule> rules;
  std::vector<ScheduleEdge> edges;
  /// SCC condensation of the graph in topological order: every edge runs
  /// from a rule in an earlier-or-equal stratum to a later-or-equal one.
  std::vector<std::vector<std::size_t>> strata;
  /// Live target tgds / egds, in declaration order (Mapping indices).
  std::vector<std::size_t> live_target_tgds;
  std::vector<std::size_t> live_egds;

  /// True when the egd fixpoint must run at all: false means every egd is
  /// dead or effect-free, so each would-be pass is provably a no-op.
  bool egd_fixpoint_live() const { return !live_egds.empty(); }

  std::size_t stratum_count() const { return strata.size(); }

  /// Multi-line human-readable rendering (strata, skips, justification
  /// edges); used by `tdx_cli plan`.
  std::string ToText() const;
  /// The same as one JSON object; used by `tdx_cli plan --format=json` and
  /// `tdx_lint --explain-plan --format=json`.
  obs::Json ToJson() const;
};

}  // namespace tdx

#endif  // TDX_ANALYSIS_SCHEDULE_H_
