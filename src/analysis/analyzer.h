// The mapping analyzer: static diagnostics over a parsed data exchange
// setting.
//
// Analyze() inspects a Schema + Mapping (and, when available, the source
// instance and the queries) and produces an AnalysisReport of structured
// Diagnostics — see analysis/diagnostic.h for the ID catalogue. The
// analyses are:
//
//  * Termination ladder (TDX001/TDX002/TDX003): runs CertifyTermination
//    over the target tgds, stores the TerminationCertificate in the report,
//    and names the concrete offending cycle of positions when one exists.
//  * Temporal satisfiability (TDX010): a tgd whose body relations never
//    hold at a common time point can never fire on the given source
//    (the interval-conjunction emptiness of Def. 10, relaxed to per-
//    relation time coverage — a sound necessary condition).
//  * Egd constant conflicts (TDX011): per-position possible-value sets
//    derived from the tgd heads; an egd whose two sides can only ever be
//    bound to disjoint sets of constants fails the chase whenever it fires.
//  * Style and liveness lints: single-use variables (TDX012), dead
//    relations (TDX013), duplicate dependencies up to variable renaming
//    (TDX014), dependencies implied by another via a one-step chase
//    implication test on a frozen body (TDX015).
//  * Empty mapping (TDX017): no s-t tgds means the target is always empty.
//
// All analyses are conservative: an `error` means the program is wrong
// (the chase cannot terminate / must fail), a `warning` flags a construct
// that is almost certainly unintended, a `note` is stylistic.

#ifndef TDX_ANALYSIS_ANALYZER_H_
#define TDX_ANALYSIS_ANALYZER_H_

#include <vector>

#include "src/analysis/diagnostic.h"
#include "src/common/source.h"
#include "src/core/query.h"
#include "src/relational/dependency.h"
#include "src/temporal/concrete_instance.h"

namespace tdx {

struct ParsedProgram;

/// What to analyze. `schema` and `mapping` (the non-temporal M) are
/// required; the rest widens coverage when present:
///  * `source` enables the data-dependent lint TDX010;
///  * `queries` extends the variable lints (TDX012) to query bodies;
///  * `relation_spans` (indexed by RelationId, parser-provided) lets
///    TDX013 point at the offending declaration.
struct AnalysisInput {
  const Schema* schema = nullptr;
  const Mapping* mapping = nullptr;
  const ConcreteInstance* source = nullptr;
  const std::vector<UnionQuery>* queries = nullptr;
  const std::vector<SourceSpan>* relation_spans = nullptr;
};

/// Runs every applicable analysis and returns the sorted report. Never
/// fails: a structurally broken mapping (atom arity or relation ids out of
/// range) yields a single TDX000 error instead of undefined behavior.
AnalysisReport Analyze(const AnalysisInput& input);

/// Convenience wrapper: analyzes a successfully parsed program (schema,
/// non-temporal mapping, source instance, queries, declaration spans).
AnalysisReport AnalyzeProgram(const ParsedProgram& program);

}  // namespace tdx

#endif  // TDX_ANALYSIS_ANALYZER_H_
