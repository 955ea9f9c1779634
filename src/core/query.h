// Conjunctive queries and unions of conjunctive queries (Section 5).
//
// A non-temporal k-ary query q over the target schema is lifted to q+ over
// the concrete target schema by adding the free temporal variable t to every
// atom (and to the output): answers of q+ are (k+1)-tuples whose last
// component is a time interval.
//
// Evaluation is homomorphism enumeration plus projection onto the head
// variables. Nulls are treated as constants by the match engine (naive
// tables); the naive-evaluation wrapper (naive_eval.h) decides what to drop.

#ifndef TDX_CORE_QUERY_H_
#define TDX_CORE_QUERY_H_

#include <optional>
#include <string>
#include <vector>

#include "src/common/source.h"
#include "src/common/status.h"
#include "src/relational/homomorphism.h"

namespace tdx {

/// One conjunctive query: head(x1, ..., xk) :- body. Non-head variables are
/// existentially quantified.
struct ConjunctiveQuery {
  std::string name;
  Conjunction body;
  /// Output variables, in answer-tuple order. Must occur in the body.
  std::vector<VarId> head;
  /// The shared free temporal variable of a lifted query (last head slot).
  std::optional<VarId> temporal_var;
  /// Position of the declaring statement; invalid for hand-built queries.
  SourceSpan span;

  Status Validate() const;
  std::string ToString(const Schema& schema, const Universe& u) const;
};

/// A union of conjunctive queries; all disjuncts must have the same arity.
struct UnionQuery {
  std::string name;
  std::vector<ConjunctiveQuery> disjuncts;

  Status Validate() const;
};

/// Lifts q to q+: every atom's relation is replaced by its concrete twin,
/// the fresh variable t is appended to every atom and to the head.
Result<ConjunctiveQuery> LiftQuery(const ConjunctiveQuery& query,
                                   const Schema& schema);
Result<UnionQuery> LiftUnionQuery(const UnionQuery& query,
                                  const Schema& schema);

/// An answer tuple (values in head order).
using Tuple = std::vector<Value>;

/// Evaluates one CQ on an instance: all homomorphisms of the body,
/// projected to the head, deduplicated, in canonical sorted order. Nulls
/// match as constants (naive-table semantics).
std::vector<Tuple> Evaluate(const ConjunctiveQuery& query,
                            const Instance& instance);

/// Union of Evaluate over the disjuncts, deduplicated, sorted.
std::vector<Tuple> Evaluate(const UnionQuery& query, const Instance& instance);

/// Drops every tuple containing a labeled or annotated null (the "down
/// arrow" of naive evaluation on a single snapshot).
std::vector<Tuple> DropTuplesWithNulls(std::vector<Tuple> tuples);

/// "(v1, ..., vn)", appended to *out.
void AppendTuple(const Tuple& tuple, const Universe& u, std::string* out);
std::string TupleToString(const Tuple& tuple, const Universe& u);

}  // namespace tdx

#endif  // TDX_CORE_QUERY_H_
