#include "src/core/certain.h"

#include <optional>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/temporal/snapshot.h"

namespace tdx {

Result<CertainAnswersResult> CertainAnswers(const UnionQuery& lifted_query,
                                            const ConcreteInstance& source,
                                            const Mapping& lifted_mapping,
                                            Universe* universe,
                                            const ChaseLimits& limits) {
  CChaseOptions options;
  options.limits = limits;
  TDX_ASSIGN_OR_RETURN(CChaseOutcome chase,
                       CChase(source, lifted_mapping, universe, options));
  CertainAnswersResult result;
  result.chase_kind = chase.kind;
  // A failed OR aborted chase yields no target to evaluate; the kind tells
  // the caller which (kAborted answers are not certain, just absent).
  if (chase.kind != ChaseResultKind::kSuccess) return result;
  TDX_ASSIGN_OR_RETURN(
      result.answers, NaiveEvaluateConcrete(lifted_query, chase.target, limits));
  return result;
}

Result<CertainAnswersResult> CertainAnswersAt(const UnionQuery& query,
                                              const ConcreteInstance& source,
                                              const Mapping& mapping,
                                              TimePoint l, Universe* universe,
                                              const ChaseLimits& limits) {
  TDX_ASSIGN_OR_RETURN(Instance snapshot, SnapshotAt(source, l, universe));
  TDX_ASSIGN_OR_RETURN(
      ChaseOutcome chase,
      ChaseSnapshot(snapshot, mapping, universe, {.limits = limits}));
  CertainAnswersResult result;
  result.chase_kind = chase.kind;
  if (chase.kind != ChaseResultKind::kSuccess) return result;
  result.answers = DropTuplesWithNulls(Evaluate(query, chase.target));
  return result;
}

Result<std::vector<CertainAnswersResult>> CertainAnswersAtMany(
    const UnionQuery& query, const ConcreteInstance& source,
    const Mapping& mapping, const std::vector<TimePoint>& points,
    Universe* /*universe*/, unsigned jobs, const ChaseLimits& limits) {
  static obs::Counter points_metric("certain.points");
  static obs::Counter chases_metric("certain.snapshot_chases");
  if (!source.IsComplete()) {
    return Status::InvalidArgument(
        "per-snapshot certain answers require a complete source instance");
  }
  points_metric.Inc(points.size());

  // One scan finds the pieces of equal snapshots and hands each its rows.
  const SnapshotPieces pieces = SplitSnapshots(source, points);

  // One task per piece: materialize its snapshot, chase it and evaluate
  // the query, all against a scratch Universe. A complete source projects
  // no null; the answers carry no nulls, so scratch ids never escape.
  std::vector<std::optional<Result<CertainAnswersResult>>> slots(
      pieces.firsts.size());
  ParallelFor(jobs, pieces.firsts.size(), [&](std::size_t k) {
    Universe scratch;
    auto run = [&]() -> Result<CertainAnswersResult> {
      Instance snapshot(&source.schema());
      {
        TDX_TRACE_SPAN("snapshot.materialize");
        TDX_ASSIGN_OR_RETURN(snapshot, MaterializePiece(source, pieces, k));
      }
      chases_metric.Inc();
      TDX_ASSIGN_OR_RETURN(ChaseOutcome chase,
                           ChaseSnapshot(snapshot, mapping, &scratch,
                                         {.limits = limits}));
      CertainAnswersResult result;
      result.chase_kind = chase.kind;
      if (chase.kind != ChaseResultKind::kSuccess) return result;
      TDX_TRACE_SPAN("snapshot.evaluate");
      result.answers = DropTuplesWithNulls(Evaluate(query, chase.target));
      return result;
    };
    slots[k] = run();
  });

  std::vector<std::size_t> piece_of_point(points.size());
  std::vector<std::size_t> last_use(pieces.firsts.size(), 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    piece_of_point[i] = pieces.PieceOf(points[i]);
    last_use[piece_of_point[i]] = i;
  }
  std::vector<CertainAnswersResult> results;
  results.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::size_t k = piece_of_point[i];
    if (!slots[k].has_value()) {
      // ParallelFor dropped this piece's task (only the thread-pool/dispatch
      // fault site does that — a stand-in for a killed worker). Its chase
      // never ran, so every point of the piece reports an abort, never
      // empty answers.
      CertainAnswersResult dropped;
      dropped.chase_kind = ChaseResultKind::kAborted;
      results.push_back(std::move(dropped));
      continue;
    }
    if (!slots[k]->ok()) return slots[k]->status();
    if (last_use[k] == i) {
      results.push_back(std::move(**slots[k]));
    } else {
      results.push_back(**slots[k]);
    }
  }
  return results;
}

}  // namespace tdx
