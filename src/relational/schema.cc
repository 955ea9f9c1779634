#include "src/relational/schema.h"

#include <utility>

namespace tdx {

Result<RelationId> Schema::AddRelation(std::string_view name,
                                       std::vector<std::string> attributes,
                                       SchemaRole role) {
  if (name.empty()) {
    return Status::InvalidArgument("relation name must be non-empty");
  }
  if (attributes.empty()) {
    return Status::InvalidArgument("relation '" + std::string(name) +
                                   "' must have at least one attribute");
  }
  if (by_name_.count(name) != 0) {
    return Status::AlreadyExists("relation '" + std::string(name) +
                                 "' is already registered");
  }
  RelationSchema rel;
  rel.id = static_cast<RelationId>(relations_.size());
  rel.name = std::string(name);
  rel.attributes = std::move(attributes);
  rel.temporal = false;
  rel.role = role;
  by_name_.emplace(rel.name, rel.id);
  relations_.push_back(std::move(rel));
  return relations_.back().id;
}

Result<RelationId> Schema::AddTemporalRelation(
    std::string_view name, std::vector<std::string> attributes,
    SchemaRole role) {
  attributes.emplace_back("T");
  TDX_ASSIGN_OR_RETURN(RelationId id,
                       AddRelation(name, std::move(attributes), role));
  relations_[id].temporal = true;
  return id;
}

Result<RelationId> Schema::AddRelationPair(std::string_view name,
                                           std::vector<std::string> attributes,
                                           SchemaRole role) {
  TDX_ASSIGN_OR_RETURN(RelationId snap, AddRelation(name, attributes, role));
  std::string concrete_name(name);
  concrete_name += "+";
  TDX_ASSIGN_OR_RETURN(
      RelationId conc,
      AddTemporalRelation(concrete_name, std::move(attributes), role));
  relations_[snap].twin = conc;
  relations_[conc].twin = snap;
  return conc;
}

Result<RelationId> Schema::Find(std::string_view name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no relation named '" + std::string(name) + "'");
  }
  return it->second;
}

Result<RelationId> Schema::TwinOf(RelationId id) const {
  assert(id < relations_.size());
  if (!relations_[id].twin.has_value()) {
    return Status::NotFound("relation '" + relations_[id].name +
                            "' has no registered twin");
  }
  return *relations_[id].twin;
}

}  // namespace tdx
