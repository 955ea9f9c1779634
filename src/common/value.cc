#include "src/common/value.h"

namespace tdx {

Value Universe::FreshNull(std::string_view name) {
  const NullId id = next_null_++;
  if (name.empty()) {
    null_names_.push_back("N" + std::to_string(id));
  } else {
    null_names_.emplace_back(name);
  }
  return Value::Null(id);
}

Value Universe::FreshAnnotatedNull(std::string_view name,
                                   const Interval& annotation) {
  const Value base = FreshNull(name);
  return Value::AnnotatedNull(base.null_id(), annotation);
}

Value Universe::ProjectNull(const Value& annotated, TimePoint l) {
  assert(annotated.is_annotated_null());
  assert(annotated.interval().Contains(l));
  const std::pair<NullId, TimePoint> key{annotated.null_id(), l};
  auto it = projections_.find(key);
  if (it != projections_.end()) return Value::Null(it->second);
  // The projected null gets a derived display name "N_l" so rendered
  // snapshots read like the paper's Figure 3.
  std::string name(NullName(annotated.null_id()));
  name += "_";
  name += TimePointToString(l);
  const Value fresh = FreshNull(name);
  projections_.emplace(key, fresh.null_id());
  return fresh;
}

void Universe::RestoreNullState(NullId next_null,
                                std::vector<std::string> names) {
  assert(names.size() == next_null);
  next_null_ = next_null;
  null_names_ = std::move(names);
  projections_.clear();
}

std::string_view Universe::NullName(NullId id) const {
  assert(id < null_names_.size());
  return null_names_[id];
}

void Universe::AppendRendered(const Value& v, std::string* out) const {
  switch (v.kind()) {
    case ValueKind::kConstant:
      *out += symbols_.Spelling(v.symbol());
      return;
    case ValueKind::kNull:
      *out += NullName(v.null_id());
      return;
    case ValueKind::kAnnotatedNull:
      *out += NullName(v.null_id());
      *out += '^';
      v.interval().AppendTo(out);
      return;
    case ValueKind::kInterval:
      v.interval().AppendTo(out);
      return;
  }
  *out += "<invalid>";
}

std::string Universe::Render(const Value& v) const {
  std::string out;
  AppendRendered(v, &out);
  return out;
}

}  // namespace tdx
