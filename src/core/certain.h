// Certain answers (Section 5, Corollary 22).
//
// certain(q, Ia, M) is, per snapshot, the intersection of q's answers over
// all solutions. By the universal-solution theorem it equals naive
// evaluation on the chase result; Corollary 22 carries this to the concrete
// view: certain(q, [[Ic]], M) = [[q+(Jc)!]] where Jc = c-chase(Ic).
//
// Three entry points:
//  * CertainAnswers — the production path: c-chase, then concrete naive
//    evaluation; answers are temporal (k+1)-tuples.
//  * CertainAnswersAt — the per-snapshot oracle: chases the materialized
//    snapshot db_l, then naive-evaluates the non-temporal query on it.
//  * CertainAnswersAtMany — CertainAnswersAt for a batch of time points,
//    one snapshot chase per piece of equal snapshots (tdx_cli query-at).

#ifndef TDX_CORE_CERTAIN_H_
#define TDX_CORE_CERTAIN_H_

#include "src/core/cchase.h"
#include "src/core/naive_eval.h"
#include "src/relational/chase.h"

namespace tdx {

struct CertainAnswersResult {
  /// kFailure means no solution exists; then certain answers are trivially
  /// "everything" (the paper leaves this case to convention) and `answers`
  /// is empty. kAborted means the chase ran out of budget — `answers` is
  /// empty and MUST NOT be interpreted as certain.
  ChaseResultKind chase_kind = ChaseResultKind::kSuccess;
  std::vector<Tuple> answers;
};

/// certain(q, [[Ic]], M) as temporal tuples: runs the c-chase of `source`
/// under `lifted` and naive-evaluates the lifted query on the result.
/// `limits` governs both the chase and the evaluation's normalization.
Result<CertainAnswersResult> CertainAnswers(const UnionQuery& lifted_query,
                                            const ConcreteInstance& source,
                                            const Mapping& lifted_mapping,
                                            Universe* universe,
                                            const ChaseLimits& limits = {});

/// Test oracle: certain answers of the non-temporal `query` on the snapshot
/// db_l of [[source]] under the non-temporal `mapping`, computed as naive
/// evaluation on the per-snapshot chase result.
Result<CertainAnswersResult> CertainAnswersAt(const UnionQuery& query,
                                              const ConcreteInstance& source,
                                              const Mapping& mapping,
                                              TimePoint l, Universe* universe,
                                              const ChaseLimits& limits = {});

/// CertainAnswersAt for a batch of time points, one snapshot chase per
/// piece. Two points p < q see the same snapshot when no fact of `source`
/// starts or ends in (p, q], so such points form one piece. One scan of
/// the source (SplitSnapshots) finds the pieces and hands each its rows;
/// each piece is materialized, chased and evaluated once, in its own task
/// on up to `jobs` threads, against a scratch Universe. `source` must be
/// complete (InvalidArgument otherwise): its snapshots project no null, so
/// a worker materializing one writes to no shared universe, and the
/// answers are null-free, so scratch ids never escape; `universe` is not
/// used.
/// results[i] corresponds to points[i] (any order, repeats allowed) and is
/// identical to CertainAnswersAt(query, source, mapping, points[i], ...)
/// regardless of `jobs`, except that when ParallelFor drops a piece's task
/// (the thread-pool/dispatch fault site) every point of that piece reports
/// kAborted with no answers.
Result<std::vector<CertainAnswersResult>> CertainAnswersAtMany(
    const UnionQuery& query, const ConcreteInstance& source,
    const Mapping& mapping, const std::vector<TimePoint>& points,
    Universe* universe, unsigned jobs = 1, const ChaseLimits& limits = {});

}  // namespace tdx

#endif  // TDX_CORE_CERTAIN_H_
