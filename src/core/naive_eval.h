// Naive evaluation on concrete solutions (Section 5).
//
// Given a lifted union of conjunctive queries q+ and a concrete solution
// Jc, the naive evaluation q+(Jc)! (the paper's down-arrow) is, per
// disjunct q':
//
//   1. normalize Jc w.r.t. q' (so the shared temporal variable can bind);
//   2. replace every interval-annotated null N^[s,e) with a fresh constant
//      c_{N,[s,e)} everywhere it occurs;
//   3. evaluate q' by homomorphism enumeration (t binds to an interval);
//   4. drop answer tuples containing fresh constants.
//
// Theorem 21: [[q+(Jc)!]] = q([[Jc]])!, i.e. the concrete answers,
// re-interpreted per snapshot, coincide with naive evaluation applied
// snapshot-wise to the abstract view. Corollary 22: when Jc is the c-chase
// result, this yields exactly the certain answers.

#ifndef TDX_CORE_NAIVE_EVAL_H_
#define TDX_CORE_NAIVE_EVAL_H_

#include "src/common/resource.h"
#include "src/core/query.h"
#include "src/temporal/abstract_instance.h"
#include "src/temporal/concrete_instance.h"

namespace tdx {

/// q+(Jc)!: naive evaluation of a lifted UCQ over a concrete solution.
/// Answers are (k+1)-tuples ending in an interval value. Deduplicated and
/// sorted; note that answers are NOT coalesced (adjacent intervals with the
/// same data values may both appear, mirroring the paper's definition).
///
/// `limits` bounds the per-disjunct normalization pass and the wall clock;
/// exhaustion returns kResourceExhausted / kDeadlineExceeded (evaluation has
/// no partial-outcome struct, so the abort is a Status). Fault site:
/// "naive-eval/normalize".
Result<std::vector<Tuple>> NaiveEvaluateConcrete(const UnionQuery& lifted,
                                                 const ConcreteInstance& jc,
                                                 const ChaseLimits& limits = {});

/// The answers of q([[.]])! at snapshot l: evaluates the non-temporal UCQ
/// on the materialized snapshot and drops tuples with nulls.
std::vector<Tuple> NaiveEvaluateAbstractAt(const UnionQuery& query,
                                           const AbstractInstance& ja,
                                           TimePoint l, Universe* universe);

/// [[q+(Jc)!]] at snapshot l: the k-tuples whose interval contains l.
std::vector<Tuple> ConcreteAnswersAt(const std::vector<Tuple>& answers,
                                     TimePoint l);

}  // namespace tdx

#endif  // TDX_CORE_NAIVE_EVAL_H_
