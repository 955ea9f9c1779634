// Parser for the tdx text format: a whole data exchange setting in one
// self-contained program.
//
//   # Example 1 / Figure 4 of the paper
//   source E(name, company);
//   source S(name, salary);
//   target Emp(name, company, salary);
//
//   tgd sigma1: E(n, c) -> exists s: Emp(n, c, s);
//   tgd sigma2: E(n, c) & S(n, s) -> Emp(n, c, s);
//   egd e1: Emp(n, c, s) & Emp(n, c, s2) -> s = s2;
//
//   fact E("Ada", "IBM")    @ [2012, 2014);
//   fact E("Ada", "Google") @ [2014, inf);
//   fact S("Ada", "18k")    @ [2013, inf);
//
//   query q(n, s): Emp(n, _, s);
//
// Conventions:
//  * `source`/`target` declare a snapshot relation R and its concrete twin
//    R+ in one go (Schema::AddRelationPair).
//  * Dependencies and queries are written over the snapshot relations (they
//    are non-temporal, as in the paper); the parser also produces the
//    lifted M+ via LiftMapping.
//  * Facts are written over the snapshot relation names and stored in the
//    concrete twin with their `@` interval.
//  * In atoms, identifiers are variables, quoted strings and numbers are
//    constants, and `_` is a fresh anonymous variable per occurrence.
//  * Several `query` statements with the same name form one union query.
//  * `ttgd` declares a target tgd (body and head over target relations);
//    the set of target tgds must be weakly acyclic (checked at parse).
//  * Tgd bodies may apply temporal operators to atoms (Section 7 of the
//    paper, body-side fragment): `once_past(R(x))`, `always_past(R(x))`,
//    `once_future(R(x))`, `always_future(R(x))`. The parser creates the
//    auxiliary closure relation, rewrites the atom, and materializes the
//    closure facts into the source instance after all facts are read (see
//    src/core/temporal_ops.h).

#ifndef TDX_PARSER_PARSER_H_
#define TDX_PARSER_PARSER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/parser/lexer.h"
#include "src/core/query.h"
#include "src/core/temporal_ops.h"
#include "src/relational/dependency.h"
#include "src/temporal/concrete_instance.h"

namespace tdx {

/// Everything a parsed program defines. Not movable: the instance holds a
/// pointer to the schema member, so the object must stay put (hence the
/// unique_ptr return).
struct ParsedProgram {
  /// One temporal-operator application site: closure facts of
  /// `base_concrete` under `op` are materialized into `closure_concrete`.
  struct ClosureSpec {
    RelationId base_concrete;
    TemporalOp op;
    RelationId closure_concrete;
  };

  Universe universe;
  Schema schema;
  Mapping mapping;  ///< the non-temporal M, certified (Mapping::certificate)
  Mapping lifted;   ///< M+ = LiftMapping(mapping), certified separately
  ConcreteInstance source;
  std::vector<UnionQuery> queries;
  std::vector<ClosureSpec> closures;
  /// Declaration position of each relation, indexed by RelationId (twins
  /// share their declaration's span; auto-created closure relations carry
  /// the span of the statement that introduced them).
  std::vector<SourceSpan> relation_spans;

  ParsedProgram() : source(&schema) {}
  ParsedProgram(const ParsedProgram&) = delete;
  ParsedProgram& operator=(const ParsedProgram&) = delete;

  /// Query lookup by name.
  Result<const UnionQuery*> FindQuery(std::string_view name) const;
};

/// Parses a complete program. All errors are ParseError with position info.
/// `limits` caps input size, token count, operator nesting, and atom arity
/// (see ParseLimits); pathological inputs fail fast with a structured error
/// instead of exhausting memory.
Result<std::unique_ptr<ParsedProgram>> ParseProgram(
    std::string_view text, const ParseLimits& limits = {});

/// Reads a program file whole: one pass into a string presized from the
/// file's length (a stream of unknown length, such as a pipe, is read on to
/// its end). NotFound when the file cannot be opened.
Result<std::string> ReadProgramFile(const std::string& path);

}  // namespace tdx

#endif  // TDX_PARSER_PARSER_H_
