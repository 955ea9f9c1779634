#include "src/temporal/concrete_instance.h"

#include <algorithm>
#include <map>

namespace tdx {

namespace {

Status CheckFact(const Schema& schema, FactView fact) {
  const RelationSchema& rel = schema.relation(fact.relation());
  if (!rel.temporal) {
    return Status::InvalidArgument("relation '" + rel.name +
                                   "' is not temporal");
  }
  if (fact.arity() != rel.arity()) {
    return Status::InvalidArgument("fact over '" + rel.name +
                                   "' has wrong arity");
  }
  if (!fact.arg(rel.temporal_position()).is_interval()) {
    return Status::InvalidArgument(
        "fact over '" + rel.name +
        "' must carry an interval in the temporal attribute");
  }
  const Interval& iv = fact.interval();
  for (std::size_t i = 0; i + 1 < fact.arity(); ++i) {
    const Value& v = fact.arg(i);
    if (v.is_interval()) {
      return Status::InvalidArgument(
          "data attributes of '" + rel.name + "' must not hold intervals");
    }
    if (v.is_null()) {
      return Status::InvalidArgument(
          "concrete facts must use interval-annotated nulls, not plain "
          "labeled nulls");
    }
    if (v.is_annotated_null() && v.interval() != iv) {
      return Status::InvalidArgument(
          "annotated null in a fact over '" + rel.name +
          "' must be annotated with the fact's own interval " + iv.ToString() +
          ", got " + v.interval().ToString());
    }
  }
  return Status::OK();
}

}  // namespace

Status ConcreteInstance::Add(RelationId rel, std::vector<Value> data,
                             const Interval& iv) {
  data.push_back(Value::OfInterval(iv));
  return Add(rel, ValueSpan(data.data(), data.size()));
}

Status ConcreteInstance::Add(RelationId rel, ValueSpan row) {
  TDX_RETURN_IF_ERROR(CheckFact(
      schema(), FactView(rel, 0, row.data(),
                         static_cast<std::uint32_t>(row.size()))));
  facts_.InsertSpan(rel, row.data(), row.size());
  return Status::OK();
}

Status ConcreteInstance::Validate() const {
  Status status = Status::OK();
  facts_.ForEach([&](FactView fact) {
    if (!status.ok()) return;
    status = CheckFact(schema(), fact);
  });
  return status;
}

bool ConcreteInstance::IsComplete() const {
  bool complete = true;
  facts_.ForEach([&](FactView fact) {
    for (const Value& v : fact.args()) {
      if (v.is_any_null()) complete = false;
    }
  });
  return complete;
}

std::vector<TimePoint> ConcreteInstance::Endpoints() const {
  std::vector<Interval> ivs;
  ivs.reserve(facts_.size());
  facts_.ForEach([&](FactView fact) { ivs.push_back(fact.interval()); });
  return DistinctFiniteEndpoints(ivs);
}

TimePoint ConcreteInstance::StabilizationPoint() const {
  const std::vector<TimePoint> endpoints = Endpoints();
  return endpoints.empty() ? 0 : endpoints.back();
}

bool ConcreteInstance::IsCoalesced() const {
  // Group intervals by (relation, data values with annotated nulls reduced
  // to their ids); within each group no two intervals may be mergeable.
  struct Key {
    RelationId rel;
    std::vector<Value> data;
    bool operator<(const Key& other) const {
      if (rel != other.rel) return rel < other.rel;
      return data < other.data;
    }
  };
  std::map<Key, std::vector<Interval>> groups;
  facts_.ForEach([&](FactView fact) {
    Key key{fact.relation(), {}};
    for (std::size_t i = 0; i + 1 < fact.arity(); ++i) {
      const Value& v = fact.arg(i);
      // Reduce annotated nulls to a canonical form so that fragments of the
      // same null sequence land in one group.
      key.data.push_back(v.is_annotated_null() ? Value::Null(v.null_id()) : v);
    }
    groups[std::move(key)].push_back(fact.interval());
  });
  for (auto& [key, ivs] : groups) {
    std::sort(ivs.begin(), ivs.end());
    for (std::size_t i = 1; i < ivs.size(); ++i) {
      if (ivs[i - 1].Mergeable(ivs[i])) return false;
    }
  }
  return true;
}

}  // namespace tdx
