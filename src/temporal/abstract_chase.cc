#include "src/temporal/abstract_chase.h"

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/analysis/planner.h"
#include "src/common/thread_pool.h"
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

/// Folds one piece's chase result into the aggregate outcome. Returns true
/// to continue with the next piece, false when the piece failed or aborted
/// (the aggregate then carries the failure and later pieces are dropped,
/// exactly like the sequential engine that never ran them).
bool MergePiece(const AbstractPiece& piece, ChaseOutcome piece_outcome,
                Universe* universe, AbstractChaseOutcome* outcome) {
  MergeCounters(&outcome->stats, piece_outcome.stats);
  if (piece_outcome.kind != ChaseResultKind::kSuccess) {
    outcome->kind = piece_outcome.kind;
    outcome->failure_span = piece.span;
    outcome->abort_dimension = piece_outcome.abort_dimension;
    outcome->abort_reason = std::move(piece_outcome.abort_reason);
    return false;
  }
  const std::vector<Value> nulls = CollectNulls(piece_outcome.target);
  outcome->target.AddPiece(
      piece.span, RelabelNulls(std::move(piece_outcome.target), nulls,
                               piece.span, universe));
  return true;
}

}  // namespace

Result<AbstractChaseOutcome> AbstractChase(const AbstractInstance& source,
                                           const Mapping& mapping,
                                           Universe* universe,
                                           const AbstractChaseOptions& options) {
  TDX_TRACE_SPAN("abstract.run");
  static obs::Counter runs_metric("abstract.runs");
  static obs::Counter pieces_metric("abstract.pieces_chased");
  static obs::Counter parallel_runs_metric("abstract.parallel_runs");
  runs_metric.Inc();
  AbstractChaseOutcome outcome(AbstractInstance(&source.schema()));
  const std::vector<AbstractPiece>& pieces = source.pieces();
  const bool parallel = options.jobs > 1 && pieces.size() > 1;
  if (parallel) parallel_runs_metric.Inc();

  // Plan once, up front: every piece chases the same mapping, and a
  // schedule-less mapping would make each per-piece chase re-derive the
  // schedule from scratch.
  Mapping piece_mapping = mapping;
  if (options.chase.scheduled) {
    piece_mapping.schedule = ScheduleFor(mapping, source.schema());
  }

  if (!parallel) {
    // Sequential engine: pieces chase against the shared universe in order.
    for (const AbstractPiece& piece : pieces) {
      if (!PieceIsComplete(piece)) {
        return Status::InvalidArgument(
            "abstract chase requires a complete source instance");
      }
      TDX_TRACE_SPAN("abstract.piece");
      pieces_metric.Inc();
      TDX_ASSIGN_OR_RETURN(
          ChaseOutcome piece_outcome,
          ChaseSnapshot(piece.snapshot, piece_mapping, universe,
                        options.chase));
      if (!MergePiece(piece, std::move(piece_outcome), universe, &outcome)) {
        return outcome;
      }
    }
    return outcome;
  }

  // Parallel engine: pieces are independent (fresh nulls per snapshot), so
  // each chases against its own scratch Universe on a pool thread. Pieces
  // are complete, so every null in a piece's target is scratch-minted and
  // replaced during the merge — scratch null ids never leak out. Constants
  // stay valid across universes (the chase never interns; it copies values
  // already interned in the shared universe). The merge runs sequentially
  // in piece order, making the outcome independent of thread scheduling.
  std::vector<std::optional<Result<ChaseOutcome>>> results(pieces.size());
  std::vector<char> incomplete(pieces.size(), 0);
  ParallelFor(options.jobs, pieces.size(), [&](std::size_t i) {
    if (!PieceIsComplete(pieces[i])) {
      incomplete[i] = 1;
      return;
    }
    TDX_TRACE_SPAN("abstract.piece");
    pieces_metric.Inc();
    Universe scratch;
    results[i] = ChaseSnapshot(pieces[i].snapshot, piece_mapping, &scratch,
                               options.chase);
  });
  TDX_TRACE_SPAN("abstract.merge");
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (incomplete[i] != 0) {
      return Status::InvalidArgument(
          "abstract chase requires a complete source instance");
    }
    if (!results[i].has_value()) {
      // The pool dropped this piece's task (only the thread-pool/dispatch
      // fault site does that — a stand-in for a killed worker). Surface a
      // clean abort with the stats of the pieces already merged.
      outcome.kind = ChaseResultKind::kAborted;
      outcome.failure_span = pieces[i].span;
      outcome.abort_dimension = ResourceDimension::kInjectedFault;
      outcome.abort_reason = "piece chase task was dropped before execution";
      return outcome;
    }
    TDX_ASSIGN_OR_RETURN(ChaseOutcome piece_outcome, std::move(*results[i]));
    if (!MergePiece(pieces[i], std::move(piece_outcome), universe, &outcome)) {
      return outcome;
    }
  }
  return outcome;
}

Result<AbstractChaseOutcome> AbstractChase(const AbstractInstance& source,
                                           const Mapping& mapping,
                                           Universe* universe,
                                           const ChaseLimits& limits) {
  AbstractChaseOptions options;
  options.chase.limits = limits;
  return AbstractChase(source, mapping, universe, options);
}

Result<ChaseOutcome> ChaseSnapshotAt(const AbstractInstance& source,
                                     TimePoint l, const Mapping& mapping,
                                     Universe* universe) {
  const Instance snapshot = source.At(l, universe);
  return ChaseSnapshot(snapshot, mapping, universe);
}

}  // namespace tdx
