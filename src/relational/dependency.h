// Schema-mapping dependencies: source-to-target tuple-generating
// dependencies (s-t tgds) and equality-generating dependencies (egds).
//
//   s-t tgd:  forall x  phi(x)  ->  exists y  psi(x, y)
//   egd:      forall x  phi(x)  ->  x1 = x2
//
// Following the paper we consider only s-t tgds and egds (no target tgds),
// which makes every chase sequence terminate (Section 1: tgds are excluded
// to avoid non-termination issues orthogonal to temporal matters).
//
// A Mapping bundles Sigma_st and Sigma_eg; together with a Schema holding
// the source and target relations it forms the data exchange setting
// M = (RS, RT, Sigma_st, Sigma_eg).
//
// Lifting (Section 4): LiftMapping produces M+ for the concrete schemas by
// replacing every relation R with its concrete twin R+ and appending one
// shared, universally quantified temporal variable t to every atom on both
// sides. Lifted dependencies are still "implicitly non-temporal": t cannot
// express relationships between different time points.

#ifndef TDX_RELATIONAL_DEPENDENCY_H_
#define TDX_RELATIONAL_DEPENDENCY_H_

#include <optional>
#include <string>
#include <vector>

#include "src/analysis/certificate.h"
#include "src/analysis/schedule.h"
#include "src/common/source.h"
#include "src/common/status.h"
#include "src/relational/homomorphism.h"

namespace tdx {

/// A source-to-target tuple-generating dependency.
struct Tgd {
  Conjunction body;  ///< phi(x); over source relations
  Conjunction head;  ///< psi(x, y); over target relations, same var ids
  /// Variables occurring in the head but not in the body (the existentially
  /// quantified y). Computed by Finalize().
  std::vector<VarId> existential;
  /// The shared temporal variable t of a lifted dependency, if lifted.
  std::optional<VarId> temporal_var;
  /// Optional display label, e.g. "sigma1".
  std::string label;
  /// Position of the declaring statement; invalid for hand-built tgds.
  SourceSpan span;

  std::size_t num_vars() const { return body.num_vars; }

  /// Computes `existential`, propagates num_vars/var_names from body to
  /// head, and validates the structure (body vars used, head non-empty).
  Status Finalize();

  std::string ToString(const Schema& schema, const Universe& u) const;
};

/// An equality-generating dependency.
struct Egd {
  Conjunction body;  ///< phi(x)
  VarId x1 = 0;      ///< left side of the equality
  VarId x2 = 0;      ///< right side of the equality
  std::optional<VarId> temporal_var;
  std::string label;
  /// Position of the declaring statement; invalid for hand-built egds.
  SourceSpan span;

  std::size_t num_vars() const { return body.num_vars; }

  Status Finalize();

  std::string ToString(const Schema& schema, const Universe& u) const;
};

/// Sigma_st together with Sigma_t (target tgds) and Sigma_eg.
///
/// The paper itself considers only s-t tgds and egds ("we do not consider
/// tgds to avoid dealing with non-termination issues ... which are
/// orthogonal to temporal database issues", Section 1). tdx additionally
/// supports target tgds under the standard weak-acyclicity condition of
/// Fagin et al., which restores guaranteed chase termination; see
/// CheckWeaklyAcyclic.
struct Mapping {
  std::vector<Tgd> st_tgds;
  std::vector<Tgd> target_tgds;
  std::vector<Egd> egds;
  /// Chase-termination certificate for `target_tgds`, filled in by
  /// ValidateAndCertifyMapping (the parser does this for every program).
  /// Engines consult it to skip re-deriving the termination check; absent
  /// on hand-built mappings, in which case engines derive it on entry.
  std::optional<TerminationCertificate> certificate;
  /// Chase schedule from the planner (analysis/planner.h): strata, dead
  /// rules, and skippable egd passes. Filled alongside the certificate by
  /// ValidateAndCertifyMapping; the engines derive it on entry when absent
  /// (unless scheduling is off).
  std::optional<ChaseSchedule> schedule;

  /// Left-hand sides of all s-t tgds (the Phi+ that the source instance is
  /// normalized against, Section 4.3).
  std::vector<Conjunction> TgdBodies() const;
  /// Left-hand sides of all target tgds.
  std::vector<Conjunction> TargetTgdBodies() const;
  /// Left-hand sides of all egds (the Phi+ for target normalization).
  std::vector<Conjunction> EgdBodies() const;

  std::string ToString(const Schema& schema, const Universe& u) const;
};

/// Lifts a non-temporal dependency to its concrete counterpart: every atom's
/// relation is replaced by its registered twin (R -> R+) and the fresh
/// temporal variable t is appended to every atom (body and head). Fails with
/// NotFound if some relation has no twin. LiftMapping carries the mapping's
/// schedule over unchanged; its certificate is left for the caller to
/// derive from M+.
Result<Tgd> LiftTgd(const Tgd& tgd, const Schema& schema);
Result<Egd> LiftEgd(const Egd& egd, const Schema& schema);
Result<Mapping> LiftMapping(const Mapping& mapping, const Schema& schema);

/// Validates that `mapping` is a proper mapping over `schema`: s-t tgd
/// bodies use only source relations and heads only target relations;
/// target tgds and egds mention only target relations; all equality
/// variables occur in their bodies; and the target tgds carry a chase
/// termination guarantee (weak acyclicity or any other rung of the ladder
/// in src/analysis/termination.h). A mapping whose `certificate` is already
/// set skips re-deriving the termination check.
Status ValidateMapping(const Mapping& mapping, const Schema& schema);

/// ValidateMapping, then computes and stores `mapping->certificate` so
/// every later engine run can consult it instead of re-deriving it.
Status ValidateAndCertifyMapping(Mapping* mapping, const Schema& schema);

/// Weak acyclicity (Fagin, Kolaitis, Miller, Popa 2005): build the
/// dependency graph over positions (relation, attribute); every chase
/// sequence with a weakly acyclic set of target tgds terminates. Returns
/// InvalidArgument naming the concrete offending cycle of positions
/// ("R.a -*-> S.b -> R.a") when one goes through a special (existential)
/// edge. The temporal attribute of lifted dependencies participates like
/// any other position; the shared variable t only ever produces regular
/// self-loops, which are harmless.
///
/// Compatibility shim over analysis/position_graph.h — new code that wants
/// the full ladder should call CertifyTermination instead.
Status CheckWeaklyAcyclic(const std::vector<Tgd>& target_tgds,
                          const Schema& schema);

}  // namespace tdx

#endif  // TDX_RELATIONAL_DEPENDENCY_H_
