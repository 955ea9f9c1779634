// Homomorphisms between abstract instances (Section 3).
//
// h : Ia -> I'a exists iff (1) there is a per-snapshot homomorphism
// h_l : db_l -> db'_l for every l, and (2) all of them agree on every
// labeled null (Example 2 shows why condition 2 matters: the same null
// appearing in two snapshots must map to the same value in both).
//
// Finite reduction: the two piece lists are walked side by side, and each
// overlap of a `from` piece with a `to` piece (their common span) is one
// step of the search; neither instance is refined or copied. Within an
// overlap both templates are constant, and the snapshots are isomorphic
// via re-projection, so a *symbolic* match of the `from` template into the
// `to` template decides all of the overlap's snapshots at once. Variable
// discipline:
//
//  * an interval-annotated null of the domain denotes a different unknown
//    per snapshot, so its image is free per overlap (constant, labeled
//    null, or annotated null of the codomain) and independent across
//    overlaps —
//    a (null, overlap)-local variable;
//  * a labeled null of the domain denotes the SAME unknown in every
//    snapshot it spans, so it is one global variable whose image must be a
//    constant or a labeled null of the codomain — except when the null
//    occurs in exactly one overlap of span length 1 (a single snapshot), in
//    which case an annotated image (one projected codomain null) is fine.
//
// The checker is sound; it is complete for homomorphisms that are uniform
// within pieces (which includes everything arising from chase results —
// non-uniform homomorphisms can only exist when the codomain offers
// distinct images at different snapshots of one piece, and then a uniform
// one exists too whenever any exists at the piece level).

#ifndef TDX_TEMPORAL_ABSTRACT_HOM_H_
#define TDX_TEMPORAL_ABSTRACT_HOM_H_

#include "src/temporal/abstract_instance.h"

namespace tdx {

/// Is there an abstract homomorphism from `from` to `to`?
bool AbstractHomomorphismExists(const AbstractInstance& from,
                                const AbstractInstance& to);

/// Homomorphisms in both directions: the "~" of Corollary 20.
bool AreAbstractEquivalent(const AbstractInstance& a,
                           const AbstractInstance& b);

}  // namespace tdx

#endif  // TDX_TEMPORAL_ABSTRACT_HOM_H_
