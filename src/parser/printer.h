// Pretty-printers that render instances the way the paper displays them:
// one aligned table per relation (Figures 4-9) and per-snapshot listings
// for abstract views (Figures 1-3). Used by the examples and the
// paper-figure regression tests. Also the `--stats` lines of a c-chase run.

#ifndef TDX_PARSER_PRINTER_H_
#define TDX_PARSER_PRINTER_H_

#include <string>

#include "src/core/cchase.h"
#include "src/core/query.h"
#include "src/temporal/abstract_instance.h"
#include "src/temporal/concrete_instance.h"

namespace tdx {

/// One relation as an aligned table with a header row, rows in canonical
/// sorted order. Empty relations render as an empty string.
std::string RenderRelationTable(const Instance& instance, RelationId rel,
                                const Universe& u);

/// All non-empty relations of an instance, tables separated by blank lines.
std::string RenderInstanceTables(const Instance& instance, const Universe& u);

/// Concrete instance: RenderInstanceTables of the wrapped instance.
std::string RenderConcreteInstance(const ConcreteInstance& instance,
                                   const Universe& u);

/// Abstract instance as "span: facts" blocks (Figure 1 / Figure 3 style).
std::string RenderAbstractInstance(const AbstractInstance& instance,
                                   const Universe& u);

/// Answer tuples, one per line, sorted.
std::string RenderAnswers(const std::vector<Tuple>& answers,
                          const Universe& u);

/// One relation as RFC-4180-style CSV with a header row (fields quoted,
/// embedded quotes doubled), rows in canonical sorted order. Suited for
/// handing exchange results to downstream tools.
std::string RenderRelationCsv(const Instance& instance, RelationId rel,
                              const Universe& u);

/// A c-chase run's work record as `tdx_cli chase --stats` prints it: one
/// "(stats: ...)" line for ChaseStats, then "(norm-source: ...)" and
/// "(norm-target: ...)" for the two normalization records. Every field of
/// the record is printed except the derived termination certificate.
std::string RenderChaseStats(const CChaseOutcome& outcome);

}  // namespace tdx

#endif  // TDX_PARSER_PRINTER_H_
