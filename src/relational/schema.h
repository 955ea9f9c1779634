// Database schemas for both the snapshot (non-temporal) world and the
// concrete (temporal) world.
//
// The paper works with a schema R and its concrete counterpart R+ (Section
// 2): for each n-ary relation R(A1, ..., An) in R there is an (n+1)-ary
// concrete relation R+(A1, ..., An, T) whose last attribute T takes time
// intervals as values.
//
// A tdx Schema holds both source and target relations of a data exchange
// setting (their instances are compared and chased together), and records
// twin links between a snapshot relation R and its concrete counterpart R+
// so that dependencies and queries can be lifted (adding the universally
// quantified temporal variable t of Section 4) and instances can be moved
// between the two views (the semantics function [[.]] of Section 2).

#ifndef TDX_RELATIONAL_SCHEMA_H_
#define TDX_RELATIONAL_SCHEMA_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"

namespace tdx {

/// Dense id of a relation within a Schema.
using RelationId = std::uint32_t;

/// Which side of the data exchange setting a relation belongs to.
enum class SchemaRole : std::uint8_t { kSource, kTarget };

/// Metadata of one relation.
struct RelationSchema {
  RelationId id = 0;
  std::string name;
  /// Attribute names; for temporal relations the last one is the temporal
  /// attribute T.
  std::vector<std::string> attributes;
  /// True for concrete relations R+ (last attribute is interval-valued).
  bool temporal = false;
  SchemaRole role = SchemaRole::kSource;
  /// Twin link: for R the id of R+, for R+ the id of R. Unset when the
  /// relation was registered without a twin.
  std::optional<RelationId> twin;

  /// Total number of attributes (including T for temporal relations).
  std::size_t arity() const { return attributes.size(); }
  /// Number of data attributes (excludes T).
  std::size_t data_arity() const { return arity() - (temporal ? 1 : 0); }
  /// Index of the temporal attribute. Precondition: temporal.
  std::size_t temporal_position() const {
    assert(temporal);
    return arity() - 1;
  }
};

/// A collection of relations. Append-only; instances hold a pointer to the
/// Schema they are over, so a Schema must outlive its instances.
class Schema {
 public:
  Schema() = default;
  Schema(const Schema&) = delete;
  Schema& operator=(const Schema&) = delete;
  Schema(Schema&&) = default;
  Schema& operator=(Schema&&) = default;

  /// Registers a non-temporal (snapshot) relation.
  Result<RelationId> AddRelation(std::string_view name,
                                 std::vector<std::string> attributes,
                                 SchemaRole role);

  /// Registers a concrete relation R+(A1, ..., An, T); `attributes` are the
  /// data attributes only, the temporal attribute "T" is appended.
  Result<RelationId> AddTemporalRelation(std::string_view name,
                                         std::vector<std::string> attributes,
                                         SchemaRole role);

  /// Registers the twin pair R (snapshot) and R+ (concrete) in one call and
  /// links them. `name` names R; R+ is named `name` + "+". Returns the id of
  /// the *concrete* relation; the snapshot twin is reachable via twin().
  Result<RelationId> AddRelationPair(std::string_view name,
                                     std::vector<std::string> attributes,
                                     SchemaRole role);

  /// Looks up a relation id by name.
  Result<RelationId> Find(std::string_view name) const;

  const RelationSchema& relation(RelationId id) const {
    assert(id < relations_.size());
    return relations_[id];
  }

  /// Twin of a relation registered via AddRelationPair.
  Result<RelationId> TwinOf(RelationId id) const;

  std::size_t relation_count() const { return relations_.size(); }

  /// All relation ids with the given role and temporality.
  std::vector<RelationId> RelationsWhere(SchemaRole role, bool temporal) const;

 private:
  std::vector<RelationSchema> relations_;
  /// Hashes std::string and std::string_view alike, so that Find looks a
  /// view up without building a string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>()(name);
    }
  };
  std::unordered_map<std::string, RelationId, NameHash, std::equal_to<>>
      by_name_;
};

}  // namespace tdx

#endif  // TDX_RELATIONAL_SCHEMA_H_
