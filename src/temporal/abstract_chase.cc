#include "src/temporal/abstract_chase.h"

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/analysis/planner.h"
#include "src/common/checkpoint.h"
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
  outcome->stats.tgd_triggers += piece_outcome.stats.tgd_triggers;
  outcome->stats.tgd_fires += piece_outcome.stats.tgd_fires;
  outcome->stats.egd_steps += piece_outcome.stats.egd_steps;
  outcome->stats.fresh_nulls += piece_outcome.stats.fresh_nulls;
  outcome->stats.values_rewritten += piece_outcome.stats.values_rewritten;
  outcome->stats.skipped_egd_passes += piece_outcome.stats.skipped_egd_passes;
  outcome->stats.skipped_normalize_passes +=
      piece_outcome.stats.skipped_normalize_passes;
  outcome->stats.search += piece_outcome.stats.search;
  // Every piece chases the same mapping, so the stratum count is shared,
  // not additive.
  outcome->stats.schedule_strata = piece_outcome.stats.schedule_strata;
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
  const std::string config =
      std::string("engine=abstract semi-naive=") +
      (options.chase.semi_naive ? "1" : "0") + " parallel=" +
      (parallel ? "1" : "0");

  // Per-piece chases never checkpoint themselves: the abstract engine's
  // safe points sit between merged pieces, and a piece's chase is atomic.
  ChaseOptions piece_options = options.chase;
  piece_options.checkpointer = nullptr;
  piece_options.resume_from = nullptr;

  // Plan once, up front: every piece chases the same mapping, and a
  // schedule-less mapping would make each per-piece chase re-derive the
  // schedule from scratch.
  Mapping piece_mapping = mapping;
  if (piece_options.scheduled) {
    piece_mapping.schedule = ScheduleFor(mapping, source.schema());
  }

  const ChaseCheckpoint* resume = options.resume_from;
  std::size_t start = 0;
  if (resume != nullptr) {
    if (resume->engine != ChaseCheckpoint::Engine::kAbstract) {
      return Status::InvalidArgument(
          "checkpoint was written by a different engine");
    }
    if (resume->config != config) {
      return Status::InvalidArgument(
          "checkpoint execution options mismatch: expected \"" + config +
          "\", checkpoint has \"" + resume->config + "\"");
    }
    if (resume->phase != "pieces" || resume->piece_cursor > pieces.size() ||
        resume->pieces.size() != resume->piece_cursor) {
      return Status::InvalidArgument(
          "checkpoint does not match this source instance");
    }
    outcome.stats = resume->stats;
    universe->RestoreNullState(resume->next_null, resume->null_names);
    for (const AbstractPiece& merged : resume->pieces) {
      outcome.target.AddPiece(merged.span, Instance(merged.snapshot));
    }
    start = resume->piece_cursor;
  }

  // The armed-fault gate for the merge seam, shared by both execution
  // paths. When the abstract-chase/merge site fires, the run aborts before
  // piece i is merged — exactly the state the "pieces" checkpoint after
  // piece i-1 captured.
  const auto merge_fault = [&](std::size_t i) -> bool {
#ifndef TDX_DISABLE_FAULT_POINTS
    if (FaultRegistry::AnyArmed()) {
      Status fault = FaultRegistry::Fire("abstract-chase/merge");
      if (!fault.ok()) {
        outcome.kind = ChaseResultKind::kAborted;
        outcome.failure_span = pieces[i].span;
        outcome.abort_dimension = ResourceDimension::kInjectedFault;
        outcome.abort_reason = fault.ToString();
        return false;
      }
    }
#else
    (void)i;
#endif
    return true;
  };

  const auto offer_checkpoint = [&](std::size_t merged_count) {
    if (options.checkpointer == nullptr) return;
    options.checkpointer->AtSafePoint(false, [&] {
      ChaseCheckpoint ck;
      ck.engine = ChaseCheckpoint::Engine::kAbstract;
      ck.config = config;
      ck.phase = "pieces";
      ck.piece_cursor = merged_count;
      ck.stats = outcome.stats;
      CaptureUniverseNulls(*universe, &ck);
      ck.pieces.reserve(merged_count);
      for (const AbstractPiece& merged : outcome.target.pieces()) {
        ck.pieces.push_back(AbstractPiece{merged.span,
                                          Instance(merged.snapshot)});
      }
      return ck;
    });
  };

  if (!parallel) {
    // Sequential engine: pieces chase against the shared universe in order.
    for (std::size_t i = start; i < pieces.size(); ++i) {
      const AbstractPiece& piece = pieces[i];
      if (!PieceIsComplete(piece)) {
        return Status::InvalidArgument(
            "abstract chase requires a complete source instance");
      }
      TDX_TRACE_SPAN("abstract.piece");
      pieces_metric.Inc();
      TDX_ASSIGN_OR_RETURN(
          ChaseOutcome piece_outcome,
          ChaseSnapshot(piece.snapshot, piece_mapping, universe,
                        piece_options));
      if (!merge_fault(i)) return outcome;
      if (!MergePiece(piece, std::move(piece_outcome), universe, &outcome)) {
        return outcome;
      }
      offer_checkpoint(i + 1);
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
  ParallelFor(options.jobs, pieces.size() - start, [&](std::size_t k) {
    const std::size_t i = start + k;
    if (!PieceIsComplete(pieces[i])) {
      incomplete[i] = 1;
      return;
    }
    TDX_TRACE_SPAN("abstract.piece");
    pieces_metric.Inc();
    Universe scratch;
    results[i] = ChaseSnapshot(pieces[i].snapshot, piece_mapping, &scratch,
                               piece_options);
  });
  TDX_TRACE_SPAN("abstract.merge");
  for (std::size_t i = start; i < pieces.size(); ++i) {
    if (incomplete[i] != 0) {
      return Status::InvalidArgument(
          "abstract chase requires a complete source instance");
    }
    if (!results[i].has_value()) {
      // The pool dropped this piece's task (only the thread-pool/dispatch
      // fault site does that — a stand-in for a killed worker). Surface a
      // clean abort with the stats of the pieces already merged; the last
      // checkpoint resumes from exactly here.
      outcome.kind = ChaseResultKind::kAborted;
      outcome.failure_span = pieces[i].span;
      outcome.abort_dimension = ResourceDimension::kInjectedFault;
      outcome.abort_reason = "piece chase task was dropped before execution";
      return outcome;
    }
    TDX_ASSIGN_OR_RETURN(ChaseOutcome piece_outcome, std::move(*results[i]));
    if (!merge_fault(i)) return outcome;
    if (!MergePiece(pieces[i], std::move(piece_outcome), universe, &outcome)) {
      return outcome;
    }
    offer_checkpoint(i + 1);
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
