// The chase-termination ladder (Grahne & Onet, "Anatomy of the chase").
//
// CertifyTermination walks the decidable criteria from strongest to
// weakest and returns a TerminationCertificate naming the first rung that
// applies:
//
//   1. no target tgds      — the paper's own fragment (Section 1): s-t tgds
//                            fire at most once per trigger, egds only merge.
//   2. richly acyclic      — no special cycle in the *extended* dependency
//                            graph; even the oblivious chase terminates.
//   3. weakly acyclic      — no special cycle in the dependency graph
//                            (Fagin et al.); every restricted chase
//                            sequence terminates in polynomial length.
//   4. stratified          — the firing-precedence graph's SCCs are each
//                            weakly acyclic on their own. tdx uses a
//                            conservative atom-level precedence (sigma1
//                            precedes sigma2 iff a head atom of sigma1 is
//                            constant-compatible with a body atom of
//                            sigma2), which over-approximates the real
//                            can-fire relation; strata then consume only
//                            facts from earlier strata, so termination
//                            follows by induction. Constant clashes are the
//                            only refinement over plain relation overlap:
//                            they are robust even under egds, which never
//                            rewrite a constant argument of a fact.
//   5. unknown             — none of the above; the certificate carries the
//                            witness cycle and guarantees_termination() is
//                            false. Engines refuse to chase such mappings.
//
// The ladder is pure analysis: it never runs the chase, and its cost is
// polynomial in the size of the mapping.

#ifndef TDX_ANALYSIS_TERMINATION_H_
#define TDX_ANALYSIS_TERMINATION_H_

#include <vector>

#include "src/analysis/certificate.h"
#include "src/analysis/position_graph.h"
#include "src/relational/dependency.h"

namespace tdx {

/// Runs the ladder over `target_tgds`. Never fails: a mapping that defeats
/// every criterion yields criterion == kUnknown with the witness cycle.
TerminationCertificate CertifyTermination(const std::vector<Tgd>& target_tgds,
                                          const Schema& schema);

/// Could a fact produced from `head` match `body`? False only on a
/// guaranteed mismatch: different relations, or some position where both
/// atoms carry distinct constants. (A constant argument of a fact survives
/// every chase step — egds merge nulls, never constants — so a clash is a
/// permanent obstruction, not just a first-round one.) Shared with the
/// chase planner (analysis/planner.h), whose whole graph is built from it.
bool AtomsCompatible(const Atom& head, const Atom& body);

/// The conservative firing-precedence test behind stratification: true iff
/// some head atom of `a` could produce a fact matching some body atom of
/// `b` — same relation, and no argument position where both atoms carry
/// distinct constants (firing `a` may then create a trigger for `b`).
bool MayActivate(const Tgd& a, const Tgd& b);

/// The strongly connected components of the graph with adjacency lists
/// `adj` (Tarjan's algorithm, without recursion), each listed in the order
/// Tarjan pops it, sinks first: a component comes before every component
/// that has an edge into it. Shared with the chase planner's strata.
std::vector<std::vector<std::size_t>> StronglyConnectedComponents(
    const std::vector<std::vector<std::size_t>>& adj);

/// Partitions tgd indices into strongly connected components of the
/// precedence graph, in an arbitrary deterministic order. Exposed for the
/// analyzer's diagnostics and for tests.
std::vector<std::vector<std::size_t>> PrecedenceComponents(
    const std::vector<Tgd>& tgds);

}  // namespace tdx

#endif  // TDX_ANALYSIS_TERMINATION_H_
