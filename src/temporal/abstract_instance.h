// Abstract temporal instances: infinite snapshot sequences, represented
// finitely.
//
// An abstract instance (Section 2) is an infinite sequence of snapshots
// <db0, db1, ...> satisfying the finite change condition: from some point m
// on, db_m = db_{m+1} = .... Such a sequence is piecewise constant, so we
// represent it as a finite list of *pieces* (span, snapshot template)
// covering [0, inf), the last piece unbounded.
//
// A piece's snapshot template is an Instance over the snapshot relations
// whose arguments may be:
//   * constants — the fact holds identically at every point of the span;
//   * labeled nulls — the SAME unknown at every point of the span (the J1
//     of Example 2 / Figure 2);
//   * interval-annotated nulls — a DIFFERENT unknown at every point
//     (the J2 of Figure 2; what the chase produces). Materialization
//     projects them: At(l) replaces N^[s,e) by proj_l(N^[s,e)).
//
// This distinction is the crux of the paper: both kinds of unknowns exist
// in the abstract view, and only the annotated kind is expressible in
// concrete instances produced by data exchange.

#ifndef TDX_TEMPORAL_ABSTRACT_INSTANCE_H_
#define TDX_TEMPORAL_ABSTRACT_INSTANCE_H_

#include <vector>

#include "src/common/status.h"
#include "src/temporal/concrete_instance.h"

namespace tdx {

/// One maximal run of identical snapshot templates.
struct AbstractPiece {
  Interval span;
  Instance snapshot;
};

class AbstractInstance {
 public:
  explicit AbstractInstance(const Schema* schema) : schema_(schema) {}

  const Schema& schema() const { return *schema_; }

  /// Appends a piece. Pieces must be appended left to right; call
  /// ValidateCover() after the last one to check full coverage of [0, inf).
  void AddPiece(const Interval& span, Instance snapshot) {
    pieces_.push_back(AbstractPiece{span, std::move(snapshot)});
  }

  /// Checks pieces are sorted, contiguous, start at 0, and end unbounded,
  /// and that annotated nulls' annotations contain their piece's span.
  Status ValidateCover() const;

  /// [[Ic]]: builds the abstract view of a concrete instance. Fact intervals
  /// are cut at every distinct endpoint, so each piece's template is
  /// constant over its span. Annotated nulls are carried into the templates
  /// un-projected (At() projects them).
  static Result<AbstractInstance> FromConcrete(const ConcreteInstance& ic);

  /// Materializes the snapshot db_l: annotated nulls are projected through
  /// `universe` (deterministically), labeled nulls kept as-is.
  Instance At(TimePoint l, Universe* universe) const;

  const std::vector<AbstractPiece>& pieces() const { return pieces_; }

 private:
  const Schema* schema_;
  std::vector<AbstractPiece> pieces_;
};

}  // namespace tdx

#endif  // TDX_TEMPORAL_ABSTRACT_INSTANCE_H_
