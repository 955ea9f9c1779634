// Semantic alignment of the concrete chase with the abstract chase
// (Figure 10, Theorem 19, Corollary 20).
//
// The paper's central correctness statement: if Jc = c-chase(Ic, M+) and
// Ja = chase([[Ic]], M), then [[Jc]] ~ Ja (homomorphically equivalent as
// abstract instances). VerifyAlignment checks this on concrete objects;
// CompareWithAbstractChase takes a c-chase outcome, runs the abstract chase
// and checks end-to-end, including agreement of success/failure;
// VerifyCorollary20 runs the c-chase first, then the same comparison.

#ifndef TDX_CORE_ALIGN_H_
#define TDX_CORE_ALIGN_H_

#include "src/core/cchase.h"
#include "src/temporal/abstract_chase.h"
#include "src/temporal/abstract_hom.h"

namespace tdx {

struct AlignmentReport {
  /// Both chases agreed on success vs failure.
  bool outcome_agreed = false;
  /// [[Jc]] -> Ja exists (meaningful only when both succeeded).
  bool forward = false;
  /// Ja -> [[Jc]] exists.
  bool backward = false;

  bool aligned() const {
    return outcome_agreed && ((forward && backward) || !forward_checked);
  }
  /// False when both chases failed (nothing to compare, but aligned).
  bool forward_checked = false;
  /// Set when the abstract chase exhausted its budget: nothing was
  /// compared, and the report is neither aligned nor misaligned.
  ResourceDimension abort_dimension = ResourceDimension::kNone;
  std::string abort_reason;
  bool aborted() const { return abort_dimension != ResourceDimension::kNone; }
};

/// Checks [[jc]] ~ ja.
Result<AlignmentReport> VerifyAlignment(const ConcreteInstance& jc,
                                        const AbstractInstance& ja);

/// Corollary 20 for `concrete` = c-chase(source, lifted), a run that
/// succeeded or failed: runs chase([[source]], snapshot_mapping) under
/// `options`, compares outcome kinds, and on mutual success checks
/// homomorphic equivalence of the semantics.
Result<AlignmentReport> CompareWithAbstractChase(
    const CChaseOutcome& concrete, const ConcreteInstance& source,
    const Mapping& snapshot_mapping, Universe* universe,
    const ChaseOptions& options = {});

/// End-to-end Corollary 20: runs c-chase(source, lifted), then
/// CompareWithAbstractChase, both without limits.
Result<AlignmentReport> VerifyCorollary20(const ConcreteInstance& source,
                                          const Mapping& snapshot_mapping,
                                          const Mapping& lifted_mapping,
                                          Universe* universe);

}  // namespace tdx

#endif  // TDX_CORE_ALIGN_H_
