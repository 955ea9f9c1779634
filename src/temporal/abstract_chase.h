// The abstract chase (Section 3).
//
// Because the s-t tgds and egds are non-temporal, the chase applies to each
// snapshot independently:
//
//   chase(Ia, M) = <chase(db0, M), chase(db1, M), ...>
//
// with fresh labeled nulls per snapshot: the nulls produced in one snapshot
// are distinct from those in every other snapshot. If any snapshot's chase
// fails, the whole abstract chase fails (and by Proposition 4(2) there is no
// solution).
//
// Two implementations:
//
//  * AbstractChase — compact: chases each *piece* once (snapshots within a
//    piece are identical, so their chases are isomorphic) and re-labels the
//    fresh nulls as interval-annotated nulls spanning the piece, which is
//    exactly "a different null per snapshot" under the [[.]] semantics.
//    This is the conceptual bridge to the c-chase.
//
//  * ChaseSnapshotAt — ground truth for testing: materializes db_l and
//    chases it directly with genuinely fresh labeled nulls.

#ifndef TDX_TEMPORAL_ABSTRACT_CHASE_H_
#define TDX_TEMPORAL_ABSTRACT_CHASE_H_

#include "src/relational/chase.h"
#include "src/temporal/abstract_instance.h"

namespace tdx {

struct AbstractChaseOutcome {
  explicit AbstractChaseOutcome(AbstractInstance target_in)
      : target(std::move(target_in)) {}

  ChaseResultKind kind = ChaseResultKind::kSuccess;
  AbstractInstance target;
  /// Span of the piece whose chase failed or aborted (meaningful iff
  /// kind != kSuccess).
  std::optional<Interval> failure_span;
  /// Aggregated over all pieces.
  ChaseStats stats;
  /// The exhausted budget dimension and its description when kAborted.
  ResourceDimension abort_dimension = ResourceDimension::kNone;
  std::string abort_reason;
};

/// Chases every piece of a *complete* abstract source instance with the
/// non-temporal mapping, in piece order against `universe`. Returns
/// InvalidArgument if some piece contains nulls (the paper assumes complete
/// sources). `options` applies to each per-piece snapshot chase
/// independently; the first piece to exhaust its budget aborts the whole
/// abstract chase (kind == kAborted, failure_span = that piece's span).
Result<AbstractChaseOutcome> AbstractChase(const AbstractInstance& source,
                                           const Mapping& mapping,
                                           Universe* universe,
                                           const ChaseOptions& options = {});

/// Materializes db_l of `source` and chases it. Ground truth for property
/// tests comparing against the compact implementations.
Result<ChaseOutcome> ChaseSnapshotAt(const AbstractInstance& source,
                                     TimePoint l, const Mapping& mapping,
                                     Universe* universe);

}  // namespace tdx

#endif  // TDX_TEMPORAL_ABSTRACT_CHASE_H_
