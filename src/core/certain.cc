#include "src/core/certain.h"

#include <optional>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
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
  TDX_ASSIGN_OR_RETURN(ChaseOutcome chase,
                       ChaseSnapshot(snapshot, mapping, universe, limits));
  CertainAnswersResult result;
  result.chase_kind = chase.kind;
  if (chase.kind != ChaseResultKind::kSuccess) return result;
  result.answers = DropTuplesWithNulls(Evaluate(query, chase.target));
  return result;
}

Result<std::vector<CertainAnswersResult>> CertainAnswersAtMany(
    const UnionQuery& query, const ConcreteInstance& source,
    const Mapping& mapping, const std::vector<TimePoint>& points,
    Universe* universe, unsigned jobs, const ChaseLimits& limits) {
  // Phase 1 (sequential): materialize every snapshot against the shared
  // universe.
  std::vector<Instance> snapshots;
  snapshots.reserve(points.size());
  for (TimePoint l : points) {
    TDX_ASSIGN_OR_RETURN(Instance snapshot, SnapshotAt(source, l, universe));
    snapshots.push_back(std::move(snapshot));
  }
  // Phase 2 (parallel): chase and evaluate each snapshot independently.
  // Scratch universes keep the workers isolated; the answers carry no nulls,
  // so scratch ids never escape, and the per-point results are exactly what
  // the one-point entry computes.
  std::vector<std::optional<Result<CertainAnswersResult>>> slots(
      points.size());
  ParallelFor(jobs, points.size(), [&](std::size_t i) {
    Universe scratch;
    auto run = [&]() -> Result<CertainAnswersResult> {
      TDX_ASSIGN_OR_RETURN(
          ChaseOutcome chase,
          ChaseSnapshot(snapshots[i], mapping, &scratch, limits));
      CertainAnswersResult result;
      result.chase_kind = chase.kind;
      if (chase.kind != ChaseResultKind::kSuccess) return result;
      result.answers = DropTuplesWithNulls(Evaluate(query, chase.target));
      return result;
    };
    slots[i] = run();
  });
  std::vector<CertainAnswersResult> results;
  results.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!slots[i].has_value()) {
      // The pool dropped this point's task (only the thread-pool/dispatch
      // fault site does that — a stand-in for a killed worker). Its chase
      // never ran, so the point reports an abort, never empty answers.
      CertainAnswersResult dropped;
      dropped.chase_kind = ChaseResultKind::kAborted;
      results.push_back(std::move(dropped));
      continue;
    }
    TDX_ASSIGN_OR_RETURN(CertainAnswersResult result, std::move(*slots[i]));
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace tdx
