// Structured diagnostics for the static analysis pass.
//
// Every finding of the mapping analyzer (analysis/analyzer.h) is a
// Diagnostic with a stable ID, a severity, a source position (when the
// parser provided one), and an optional fix-it hint. An AnalysisReport
// bundles the findings of one program together with the mapping's
// TerminationCertificate and renders as human-readable text or as JSON
// (for editor and CI integration; `tdx_lint --format=json`).
//
// Diagnostic ID catalogue (documented in docs/INTERNALS.md):
//
//   TDX000  error    program does not parse (tdx_lint wraps parse errors)
//   TDX001  error    target tgds admit a non-terminating chase (with cycle)
//   TDX002  warning  not weakly acyclic, certified by stratification only
//   TDX003  note     weakly but not richly acyclic (oblivious chase open)
//   TDX010  warning  dependency body can never fire: the body relations'
//                    facts never hold at a common time point (Def. 10)
//   TDX011  warning  egd equates terms that can only be distinct constants
//   TDX012  note     variable occurs exactly once (suggest '_')
//   TDX013  warning  dead relation (never read/written by any statement)
//   TDX014  warning  duplicate dependency (identical up to renaming)
//   TDX015  note     dependency implied by another (body containment)
//   TDX017  warning  mapping has no s-t tgds; target is always empty
//   TDX018  warning  dead rule: a body atom can never be derived, the rule
//                    never fires on any source (chase planner liveness)
//   TDX019  warning  effect-free egd: both equality sides are pinned to
//                    the same constant; firings never merge or fail
//   TDX020  note     egd may rewrite nulls a target tgd's body reads
//                    (forces frontier re-seeding after merging fixpoints)
//   TDX021  note     rules form a dependency cycle (share one stratum)
//   TDX022  note     declaration order inverts stratum order (a rule is
//                    declared before a feeder from an earlier stratum)
//   TDX023  note     relation is written by the chase but never read by
//                    any rule body or query
//   TDX024  note     target tgd contributes (even transitively) to no
//                    query; only reported when the program has queries

#ifndef TDX_ANALYSIS_DIAGNOSTIC_H_
#define TDX_ANALYSIS_DIAGNOSTIC_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/certificate.h"
#include "src/common/source.h"
#include "src/obs/json.h"

namespace tdx {

enum class Severity { kError, kWarning, kNote };

/// "error", "warning", or "note".
std::string_view SeverityName(Severity s);

struct Diagnostic {
  std::string id;  ///< stable identifier, e.g. "TDX013"
  Severity severity = Severity::kWarning;
  std::string message;
  SourceSpan span;   ///< unknown (line 0) when the object was hand-built
  std::string hint;  ///< optional fix-it suggestion; may be empty
};

/// The result of analyzing one program/mapping.
struct AnalysisReport {
  std::vector<Diagnostic> diagnostics;
  /// The termination ladder's verdict for the mapping's target tgds.
  TerminationCertificate certificate;

  void Add(std::string id, Severity severity, std::string message,
           SourceSpan span = {}, std::string hint = {});

  std::size_t CountOf(Severity severity) const;
  bool HasErrors() const { return CountOf(Severity::kError) != 0; }
  /// True after PromoteWarnings (--Werror) or if errors were present.
  void PromoteWarnings();

  /// Stable order for rendering: by position, then ID, then message.
  void Sort();
};

/// One diagnostic in clang style (with trailing newline; two lines when a
/// hint is present):
///   <file>:<line>:<col>: <severity>: <message> [TDXnnn]
///       hint: <hint>
std::string RenderDiagnostic(const Diagnostic& d, std::string_view file);

/// RenderDiagnostic over the whole report, followed by a summary line and
/// the termination certificate.
std::string RenderText(const AnalysisReport& report, std::string_view file);

/// The report as one JSON object (Dump() gives the compact form
/// `tdx_lint --format=json` prints):
///   {"file": ..., "diagnostics": [...], "certificate": {...},
///    "errors": N, "warnings": N, "notes": N}
obs::Json RenderJson(const AnalysisReport& report, std::string_view file);

}  // namespace tdx

#endif  // TDX_ANALYSIS_DIAGNOSTIC_H_
