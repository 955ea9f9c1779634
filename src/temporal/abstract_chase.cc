#include "src/temporal/abstract_chase.h"

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/analysis/planner.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace tdx {

namespace {

bool PieceIsComplete(const AbstractPiece& piece) {
  bool complete = true;
  piece.snapshot.ForEach([&](FactView fact) {
    for (const Value& v : fact.args()) {
      if (v.is_any_null()) complete = false;
    }
  });
  return complete;
}

/// The distinct labeled nulls of `target` in first-occurrence order (fact
/// order is deterministic, so this order is too).
std::vector<Value> CollectNulls(const Instance& target) {
  std::unordered_set<NullId> seen;
  std::vector<Value> out;
  target.ForEach([&](FactView fact) {
    for (const Value& v : fact.args()) {
      if (v.is_null() && seen.insert(v.null_id()).second) out.push_back(v);
    }
  });
  return out;
}

/// Re-labels the chase's fresh labeled nulls as interval-annotated nulls
/// spanning the piece: a distinct unknown at every snapshot (Section 3:
/// "the fresh labeled nulls produced in a snapshot are distinct from those
/// produced in the other snapshots"). One rebuild pass; the substitution is
/// injective over distinct nulls, so no facts collapse and per-relation
/// fact order is preserved — identical to replacing the nulls one at a time.
Instance RelabelNulls(Instance target, const std::vector<Value>& nulls,
                      const Interval& span, Universe* universe) {
  if (nulls.empty()) return target;
  std::unordered_map<Value, Value, ValueHash> subst;
  subst.reserve(nulls.size());
  for (const Value& old_null : nulls) {
    subst.emplace(old_null, universe->FreshAnnotatedNull(span));
  }
  Instance relabeled(&target.schema());
  std::vector<Value> args;
  target.ForEach([&](FactView fact) {
    args.clear();
    args.reserve(fact.arity());
    for (const Value& v : fact.args()) {
      auto it = subst.find(v);
      args.push_back(it == subst.end() ? v : it->second);
    }
    relabeled.InsertSpan(fact.relation(), args.data(), args.size());
  });
  return relabeled;
}

}  // namespace

Result<AbstractChaseOutcome> AbstractChase(const AbstractInstance& source,
                                           const Mapping& mapping,
                                           Universe* universe,
                                           const ChaseOptions& options) {
  TDX_TRACE_SPAN("abstract.run");
  static obs::Counter runs_metric("abstract.runs");
  static obs::Counter pieces_metric("abstract.pieces_chased");
  runs_metric.Inc();
  AbstractChaseOutcome outcome(AbstractInstance(&source.schema()));

  // Plan once, up front: every piece chases the same mapping, and a
  // schedule-less mapping would make each per-piece chase re-derive the
  // schedule from scratch.
  Mapping piece_mapping = mapping;
  if (options.scheduled) {
    piece_mapping.schedule = ScheduleFor(mapping, source.schema());
  }

  for (const AbstractPiece& piece : source.pieces()) {
    if (!PieceIsComplete(piece)) {
      return Status::InvalidArgument(
          "abstract chase requires a complete source instance");
    }
    TDX_TRACE_SPAN("abstract.piece");
    pieces_metric.Inc();
    TDX_ASSIGN_OR_RETURN(
        ChaseOutcome piece_outcome,
        ChaseSnapshot(piece.snapshot, piece_mapping, universe, options));
    MergeCounters(&outcome.stats, piece_outcome.stats);
    if (piece_outcome.kind != ChaseResultKind::kSuccess) {
      outcome.kind = piece_outcome.kind;
      outcome.failure_span = piece.span;
      outcome.abort_dimension = piece_outcome.abort_dimension;
      outcome.abort_reason = std::move(piece_outcome.abort_reason);
      return outcome;
    }
    const std::vector<Value> nulls = CollectNulls(piece_outcome.target);
    outcome.target.AddPiece(
        piece.span, RelabelNulls(std::move(piece_outcome.target), nulls,
                                 piece.span, universe));
  }
  return outcome;
}

Result<ChaseOutcome> ChaseSnapshotAt(const AbstractInstance& source,
                                     TimePoint l, const Mapping& mapping,
                                     Universe* universe) {
  const Instance snapshot = source.At(l, universe);
  return ChaseSnapshot(snapshot, mapping, universe);
}

}  // namespace tdx
