// Semantic (snapshot-wise) comparison of concrete instances.
//
// Two concrete instances are semantically equal iff their abstract views
// coincide at every time point — regardless of how the facts are
// fragmented or ordered. SemanticDiff reports WHERE two instances differ:
// the maximal runs of snapshots with a difference, plus the facts present
// on only one side in each run (null-insensitive comparison uses
// homomorphic equivalence instead; this diff is for complete instances and
// for exact comparisons of chase outputs under one Universe).
//
// Used by tests to produce actionable failure messages.

#ifndef TDX_TEMPORAL_SEMANTIC_DIFF_H_
#define TDX_TEMPORAL_SEMANTIC_DIFF_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/temporal/abstract_instance.h"

namespace tdx {

/// One maximal run of snapshots on which the two instances differ.
struct DiffSpan {
  Interval span;
  /// Facts of the snapshot of `a` not in the snapshot of `b`, rendered.
  std::vector<std::string> only_in_a;
  /// Facts of the snapshot of `b` not in the snapshot of `a`, rendered.
  std::vector<std::string> only_in_b;
};

struct SemanticDiffResult {
  std::vector<DiffSpan> spans;
  bool equal() const { return spans.empty(); }
  /// Multi-line human-readable report; empty string when equal.
  std::string ToString() const;
};

/// Compares [[a]] and [[b]] snapshot-wise. Instances must share a Schema;
/// values are compared exactly (constants by identity, nulls by identity),
/// so this is an EXACT semantic diff, not an up-to-renaming equivalence —
/// use AreAbstractEquivalent for the latter.
Result<SemanticDiffResult> SemanticDiff(const ConcreteInstance& a,
                                        const ConcreteInstance& b,
                                        Universe* universe);

}  // namespace tdx

#endif  // TDX_TEMPORAL_SEMANTIC_DIFF_H_
