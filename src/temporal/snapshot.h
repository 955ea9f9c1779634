// The semantics function [[.]]: from concrete instances to snapshots.
//
// Section 2 (complete instances) and Section 4.1 (instances with
// interval-annotated nulls) define
//
//   db_l = { R(a, proj_l(N^[s,e)))  |  R+(a, N^[s,e), [s,e)) in Ic,
//                                      s <= l < e }
//
// SnapshotAt materializes db_l over the *snapshot twins* of the concrete
// relations (R for R+). Projection of annotated nulls goes through
// Universe::ProjectNull, so repeated materializations are consistent: the
// same annotated null at the same time point always yields the same labeled
// null — this is what makes [[.]] a function.

#ifndef TDX_TEMPORAL_SNAPSHOT_H_
#define TDX_TEMPORAL_SNAPSHOT_H_

#include <cstddef>
#include <vector>

#include "src/common/status.h"
#include "src/temporal/concrete_instance.h"

namespace tdx {

/// Materializes the snapshot db_l of [[instance]] over the snapshot twin
/// relations. Fails with NotFound if some concrete relation lacks a twin.
Result<Instance> SnapshotAt(const ConcreteInstance& instance, TimePoint l,
                            Universe* universe);

/// A batch of time points split into pieces that hold the same facts. Two
/// sorted points p < q share their facts when no fact starts or ends in
/// (p, q]; each such endpoint cuts in front of the first point at or after
/// it (the endpoint splitting of Dignös et al., Snapshot Semantics for
/// Temporal Multiset Relations). The points of a piece see equal snapshots
/// when the instance is complete; otherwise each projects the piece's
/// annotated nulls to its own point.
struct SnapshotPieces {
  std::vector<TimePoint> points;      ///< the points, sorted and distinct
  std::vector<std::size_t> piece_of;  ///< the piece of points[j]
  std::vector<TimePoint> firsts;      ///< the first point of each piece
  /// The facts of each piece's snapshot, in source order (the order
  /// SnapshotAt inserts them in).
  std::vector<std::vector<FactRef>> rows;

  /// The piece of a point in `points`.
  std::size_t PieceOf(TimePoint l) const;
};

/// One scan over the facts of `instance`: finds the pieces of `points`
/// (any order, duplicates allowed) and hands each piece its rows.
SnapshotPieces SplitSnapshots(const ConcreteInstance& instance,
                              std::vector<TimePoint> points);

/// Materializes piece k over the snapshot twin relations, in source order,
/// with annotated nulls un-projected: the template that
/// AbstractInstance::FromConcrete needs. When the instance is complete this
/// is, fact for fact and in order, SnapshotAt(instance, pieces.firsts[k]).
/// Fails like SnapshotAt when a relation lacks a twin.
Result<Instance> MaterializePiece(const ConcreteInstance& instance,
                                  const SnapshotPieces& pieces,
                                  std::size_t k);

}  // namespace tdx

#endif  // TDX_TEMPORAL_SNAPSHOT_H_
