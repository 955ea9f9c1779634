// Normalization of concrete instances (Section 4.2).
//
// To chase a concrete instance, homomorphisms from dependency bodies — in
// which every atom shares one temporal variable t — must be able to map t
// to a single interval. A concrete instance is *normalized* w.r.t. a set of
// temporal conjunctions Phi+ (Definition 7) iff it has the *empty
// intersection property* (Definition 10, equivalent by Theorem 11): for
// every homomorphism from a phi* in N(Phi+) (phi with the temporal variable
// renamed apart per atom) to the instance, the time intervals of the image
// facts are either pairwise-equal or have empty intersection. Intervals
// then "behave as constants".
//
// Algorithm 1, norm(Ic, Phi+), fragments only the facts that co-occur in
// the image of some phi* with overlapping intervals, merging overlapping
// groups first. It is implemented once, as a NormalizeState pass
// (normalize_incremental.h); Normalize below is that pass from an empty
// watermark. Polynomial for fixed Phi+, and the output never has more
// facts than NaiveNormalize's, which ignores Phi+ and fragments every fact
// at every distinct endpoint of the whole instance: O(n log n) time, but
// possibly many unnecessary fragments (Figure 5 vs Figure 6).
//
// Both normalizers preserve the [[.]] semantics: fragments carry the
// original data values, and annotated nulls are re-annotated to each
// fragment's interval (fragments of one null still project onto the same
// null sequence).

#ifndef TDX_CORE_NORMALIZE_H_
#define TDX_CORE_NORMALIZE_H_

#include <cstddef>
#include <vector>

#include "src/common/resource.h"
#include "src/relational/homomorphism.h"
#include "src/temporal/concrete_instance.h"

namespace tdx {

/// The work of one normalization pass, or of a run's passes added up with
/// Accumulate (the c-chase's target record). The work counters and the pass
/// counts are totals; the sizes are the last complete pass's.
struct NormalizeStats {
  std::size_t input_facts = 0;
  std::size_t output_facts = 0;
  /// Homomorphisms from renamed-apart conjunctions found while building S.
  /// A full pass counts each once; a watermarked pass sweeps only
  /// delta-seeded homs, so it counts fewer enumerations than a full pass
  /// over the same instance.
  std::size_t homomorphisms = 0;
  /// Connected components of overlapping fact groups (the merged S of
  /// Algorithm 1). Always 0 for the naive normalizer.
  std::size_t groups = 0;
  /// Facts treated as new since the last pass: appended, or rewritten in
  /// place by an egd. Full passes (and the naive normalizer) count every
  /// input fact here.
  std::size_t delta_facts = 0;
  /// Components re-fragmented. A full pass dirties every group.
  std::size_t dirty_components = 0;
  /// Components of the previous pass copied through untouched. Always 0 for
  /// full passes.
  std::size_t reused_components = 0;
  /// Rows the pass read or wrote: fresh (appended or rewritten) rows, old
  /// rows expanded or re-read as members of a reached component or a null
  /// cluster, grouped rows fragmented, and the rows of rewritten tails. A
  /// pass over a small delta visits few rows however large the instance;
  /// the naive normalizer visits every input and output row.
  std::size_t rows_visited = 0;
  /// Passes started, and how many of them started from an empty watermark
  /// (every naive pass is full).
  std::size_t passes = 0;
  std::size_t full_passes = 0;
  /// True when the guard tripped mid-pass and the output is partially
  /// normalized (garbage per the guard contract below).
  bool partial = false;

  /// Adds one pass's record. A partial pass adds only its pass counts,
  /// since its work counters were never filled in.
  void Accumulate(const NormalizeStats& pass);
};

/// N(phi): renames the temporal position of every atom to a fresh variable,
/// yielding phi*. Precondition: every atom's relation is temporal (the
/// conjunction is a lifted lhs). The data variables keep their ids.
Conjunction RenameTemporalApart(const Conjunction& phi);

/// The naive endpoint normalizer (Section 4.2): fragments every fact at all
/// distinct endpoints occurring in the instance.
///
/// Both normalizers admit each emitted fragment against `guard` (when
/// non-null) by the pass's own fragment count, so the budget is per pass,
/// and poll its deadline; a run whose guard trips stops early and returns
/// a PARTIALLY normalized instance — callers must check guard->tripped()
/// (mirrored in NormalizeStats::partial) and treat the result as garbage.
/// Fault sites: "normalize/naive" here, "normalize/algorithm1" and
/// "normalize/incremental" in normalize_incremental.h.
ConcreteInstance NaiveNormalize(const ConcreteInstance& instance,
                                NormalizeStats* stats = nullptr,
                                ResourceGuard* guard = nullptr);

/// Algorithm 1, norm(Ic, Phi+). `phis` are temporal conjunctions — in the
/// chase they are the lifted lhs of the s-t tgds or of the egds. See
/// NaiveNormalize for the `guard` contract; a trip returns the input
/// unnormalized. Component labels are kept only by a NormalizeState (its
/// Export).
ConcreteInstance Normalize(const ConcreteInstance& instance,
                           const std::vector<Conjunction>& phis,
                           NormalizeStats* stats = nullptr,
                           ResourceGuard* guard = nullptr);

/// Definition 10: checks the empty intersection property of `instance`
/// w.r.t. `phis` — by Theorem 11, equivalent to being normalized.
bool HasEmptyIntersectionProperty(const ConcreteInstance& instance,
                                  const std::vector<Conjunction>& phis);

}  // namespace tdx

#endif  // TDX_CORE_NORMALIZE_H_
