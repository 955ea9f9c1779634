// Serialization back into the tdx text format.
//
// Everything ParseProgram reads can be written back out: schemas, mappings
// (including target tgds), facts, and queries. The output parses to an
// equivalent program (round-trip property, exercised by tests), which makes
// exchange results durable: `tdx_cli chase --emit-program` produces a
// program whose facts are the computed solution.
//
// Instances containing interval-annotated nulls are NOT serializable as
// `fact` statements (the format deliberately keeps sources complete, as the
// paper requires); SerializeInstanceFacts returns InvalidArgument for them.

#ifndef TDX_PARSER_SERIALIZE_H_
#define TDX_PARSER_SERIALIZE_H_

#include <string>
#include <string_view>

#include "src/common/checkpoint.h"
#include "src/parser/parser.h"

namespace tdx {

/// `source`/`target` declarations for every relation pair in the schema.
/// Auxiliary closure relations (R__once_past, ...) are skipped: they are
/// re-derived from the operators in the mapping on re-parse.
std::string SerializeSchema(const Schema& schema);

/// `tgd`/`ttgd`/`egd` statements. Dependencies must be the NON-temporal
/// mapping (the lifted form is derived on re-parse).
std::string SerializeMapping(const Mapping& mapping, const Schema& schema,
                             const Universe& u);

/// `fact` statements for a complete concrete instance.
Result<std::string> SerializeInstanceFacts(const ConcreteInstance& instance,
                                           const Universe& u);

/// `query` statements.
std::string SerializeQueries(const std::vector<UnionQuery>& queries,
                             const Schema& schema, const Universe& u);

/// The whole program: schema, mapping, facts, queries.
Result<std::string> SerializeProgram(const ParsedProgram& program);

// ---------------------------------------------------------------------------
// Checkpoint encoding
// ---------------------------------------------------------------------------
//
// The `fact` statement format above deliberately rejects nulls (sources are
// complete); a c-chase checkpoint is exactly a partial target full of
// interval-annotated nulls, so it gets its own line-based durable
// encoding: a version header, the cursor/stats/ledger scalars, the null
// namespace, then instances as `fact <relation> <value>...` lines with a
// typed value syntax (c"..." constant, n<id> labeled null,
// a<id>[s,e) annotated null, i[s,e) interval; "inf" for the open right
// endpoint), terminated by an FNV-1a checksum line that ParseCheckpoint
// verifies. Deterministic: the same checkpoint serializes to the same bytes.

/// Encodes `checkpoint`. `schema`/`universe` are the ones its instances
/// refer to (relations are written by name, constants by spelling).
Result<std::string> SerializeCheckpoint(const ChaseCheckpoint& checkpoint,
                                        const Schema& schema,
                                        const Universe& u);

/// Decodes a checkpoint: validates the version, checksum, relation names,
/// and arities against `schema`, and re-interns constants into `universe`.
/// Every count is checked against the text left to hold its entries before
/// anything is sized from it. Does NOT touch the universe's null namespace —
/// the c-chase restores it when the checkpoint is passed via
/// CChaseOptions::resume_from.
Result<ChaseCheckpoint> ParseCheckpoint(std::string_view text,
                                        const Schema* schema,
                                        Universe* universe);

}  // namespace tdx

#endif  // TDX_PARSER_SERIALIZE_H_
