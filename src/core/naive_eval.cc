#include "src/core/naive_eval.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/core/normalize.h"

namespace tdx {

Result<std::vector<Tuple>> NaiveEvaluateConcrete(const UnionQuery& lifted,
                                                 const ConcreteInstance& jc,
                                                 const ChaseLimits& limits) {
  TDX_RETURN_IF_ERROR(lifted.Validate());
  ResourceGuard guard(limits);
  std::vector<Tuple> out;
  for (const ConjunctiveQuery& q : lifted.disjuncts) {
    TDX_FAULT_POINT("naive-eval/normalize");
    // Step 1: normalize Jc w.r.t. the disjunct's body.
    const ConcreteInstance normalized = Normalize(jc, {q.body}, nullptr,
                                                  &guard);
    if (guard.tripped()) return guard.ToStatus();

    // Steps 2-4: the paper replaces each annotated null with a fresh
    // constant c_{N,[s,e)}, evaluates, and drops tuples containing fresh
    // constants. The match engine already compares annotated nulls by
    // identity — exactly how the fresh constants would compare — so the
    // rewrite is a no-op here: evaluate directly, then drop tuples that
    // contain any null.
    std::vector<Tuple> answers =
        DropTuplesWithNulls(Evaluate(q, normalized.facts()));
    out.insert(out.end(), answers.begin(), answers.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<Tuple> NaiveEvaluateAbstractAt(const UnionQuery& query,
                                           const AbstractInstance& ja,
                                           TimePoint l, Universe* universe) {
  const Instance snapshot = ja.At(l, universe);
  return DropTuplesWithNulls(Evaluate(query, snapshot));
}

std::vector<Tuple> ConcreteAnswersAt(const std::vector<Tuple>& answers,
                                     TimePoint l) {
  std::vector<Tuple> out;
  for (const Tuple& tuple : answers) {
    assert(!tuple.empty() && tuple.back().is_interval());
    if (!tuple.back().interval().Contains(l)) continue;
    out.emplace_back(tuple.begin(), tuple.end() - 1);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace tdx
