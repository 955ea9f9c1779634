#include "src/temporal/abstract_instance.h"

#include <utility>
#include <vector>

#include "src/obs/trace.h"
#include "src/temporal/snapshot.h"

namespace tdx {

Status AbstractInstance::ValidateCover() const {
  if (pieces_.empty()) {
    return Status::InvalidArgument("abstract instance has no pieces");
  }
  if (pieces_.front().span.start() != 0) {
    return Status::InvalidArgument("first piece must start at time 0");
  }
  if (!pieces_.back().span.unbounded()) {
    return Status::InvalidArgument(
        "last piece must be unbounded (finite change condition)");
  }
  for (std::size_t i = 1; i < pieces_.size(); ++i) {
    if (pieces_[i].span.start() != pieces_[i - 1].span.end()) {
      return Status::InvalidArgument("pieces must be contiguous");
    }
  }
  for (const AbstractPiece& piece : pieces_) {
    Status status = Status::OK();
    piece.snapshot.ForEach([&](FactView fact) {
      if (!status.ok()) return;
      for (const Value& v : fact.args()) {
        if (v.is_annotated_null() && !v.interval().Contains(piece.span)) {
          status = Status::InvalidArgument(
              "annotated null's annotation " + v.interval().ToString() +
              " does not contain its piece span " + piece.span.ToString());
        }
      }
    });
    if (!status.ok()) return status;
  }
  return Status::OK();
}

Result<AbstractInstance> AbstractInstance::FromConcrete(
    const ConcreteInstance& ic) {
  TDX_TRACE_SPAN("abstract.from_concrete");
  // Every boundary after 0 is a fact endpoint and so cuts: one piece per
  // boundary, holding the facts whose intervals contain its span.
  std::vector<TimePoint> boundaries = ic.Endpoints();
  boundaries.push_back(0);
  SnapshotPieces pieces = SplitSnapshots(ic, std::move(boundaries));
  const std::vector<TimePoint>& firsts = pieces.firsts;
  AbstractInstance out(&ic.schema());
  for (std::size_t k = 0; k < firsts.size(); ++k) {
    const Interval span = k + 1 < firsts.size()
                              ? Interval(firsts[k], firsts[k + 1])
                              : Interval::FromStart(firsts[k]);
    TDX_ASSIGN_OR_RETURN(Instance snapshot, MaterializePiece(ic, pieces, k));
    // Free the piece's rows as it is built: together they hold a reference
    // per piece-fact (4.2M on perfbench employment's source).
    std::vector<FactRef>().swap(pieces.rows[k]);
    out.AddPiece(span, std::move(snapshot));
  }
  return out;
}

Instance AbstractInstance::At(TimePoint l, Universe* universe) const {
  for (const AbstractPiece& piece : pieces_) {
    if (!piece.span.Contains(l)) continue;
    Instance out(schema_);
    std::vector<Value> row;
    piece.snapshot.ForEach([&](FactView fact) {
      row.clear();
      for (const Value& v : fact.args()) {
        row.push_back(v.is_annotated_null() ? universe->ProjectNull(v, l) : v);
      }
      out.InsertSpan(fact.relation(), row.data(), row.size());
    });
    return out;
  }
  // Not covered (ValidateCover would have failed); empty snapshot.
  return Instance(schema_);
}

}  // namespace tdx
