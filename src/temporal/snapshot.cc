#include "src/temporal/snapshot.h"

#include <vector>

namespace tdx {

Result<Instance> SnapshotAt(const ConcreteInstance& instance, TimePoint l,
                            Universe* universe) {
  const Schema& schema = instance.schema();
  Instance out(&schema);
  Status status = Status::OK();
  std::vector<Value> row;
  instance.facts().ForEach([&](FactView fact) {
    if (!status.ok()) return;
    if (!fact.interval().Contains(l)) return;
    Result<RelationId> twin = schema.TwinOf(fact.relation());
    if (!twin.ok()) {
      status = twin.status();
      return;
    }
    row.clear();
    for (std::size_t i = 0; i + 1 < fact.arity(); ++i) {
      const Value& v = fact.arg(i);
      row.push_back(v.is_annotated_null() ? universe->ProjectNull(v, l) : v);
    }
    out.InsertSpan(*twin, row.data(), row.size());
  });
  if (!status.ok()) return status;
  return out;
}

}  // namespace tdx
