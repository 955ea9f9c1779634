#include "src/core/certain.h"

#include <algorithm>
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

  // Piece keys. Two sorted points p < q see the same snapshot when no fact
  // starts or ends in (p, q]; every such endpoint x cuts in front of the
  // first point >= x.
  std::vector<TimePoint> sorted = points;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::vector<char> cut(sorted.size(), 0);
  const auto cut_at = [&](TimePoint x) {
    const auto it = std::lower_bound(sorted.begin(), sorted.end(), x);
    if (it != sorted.begin() && it != sorted.end()) {
      cut[it - sorted.begin()] = 1;
    }
  };
  source.facts().ForEach([&](FactView fact) {
    const Interval iv = fact.interval();
    cut_at(iv.start());
    if (!iv.unbounded()) cut_at(iv.end());
  });
  // piece_of[j]: the piece of sorted[j]; firsts[k]: piece k's first point.
  std::vector<std::size_t> piece_of(sorted.size());
  std::vector<TimePoint> firsts;
  for (std::size_t j = 0; j < sorted.size(); ++j) {
    if (j == 0 || cut[j] != 0) firsts.push_back(sorted[j]);
    piece_of[j] = firsts.size() - 1;
  }

  // One task per piece: materialize its snapshot, chase it and evaluate
  // the query, all against a scratch Universe. A complete source projects
  // no null, so SnapshotAt never writes to it; the answers carry no nulls,
  // so scratch ids never escape.
  std::vector<std::optional<Result<CertainAnswersResult>>> slots(
      firsts.size());
  ParallelFor(jobs, firsts.size(), [&](std::size_t k) {
    Universe scratch;
    auto run = [&]() -> Result<CertainAnswersResult> {
      Instance snapshot(&source.schema());
      {
        TDX_TRACE_SPAN("snapshot.materialize");
        TDX_ASSIGN_OR_RETURN(snapshot, SnapshotAt(source, firsts[k], &scratch));
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
  std::vector<std::size_t> last_use(firsts.size(), 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto it = std::lower_bound(sorted.begin(), sorted.end(), points[i]);
    piece_of_point[i] = piece_of[it - sorted.begin()];
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
