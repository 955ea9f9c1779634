#include "src/temporal/abstract_instance.h"

#include <algorithm>

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
  const Schema& schema = ic.schema();
  std::vector<TimePoint> boundaries = ic.Endpoints();
  if (boundaries.empty() || boundaries.front() != 0) {
    boundaries.insert(boundaries.begin(), 0);
  }

  AbstractInstance out(&schema);
  for (std::size_t i = 0; i < boundaries.size(); ++i) {
    const Interval span = (i + 1 < boundaries.size())
                              ? Interval(boundaries[i], boundaries[i + 1])
                              : Interval::FromStart(boundaries[i]);
    Instance snapshot(&schema);
    Status status = Status::OK();
    ic.facts().ForEach([&](FactView fact) {
      if (!status.ok()) return;
      // Spans are cut at every fact endpoint, so a fact interval either
      // contains the span or is disjoint from it.
      if (!fact.interval().Contains(span.start())) return;
      Result<RelationId> twin = schema.TwinOf(fact.relation());
      if (!twin.ok()) {
        status = twin.status();
        return;
      }
      snapshot.InsertSpan(*twin, fact.args().data(), fact.arity() - 1);
    });
    if (!status.ok()) return status;
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

std::vector<TimePoint> AbstractInstance::Boundaries() const {
  std::vector<TimePoint> out;
  out.reserve(pieces_.size());
  for (const AbstractPiece& piece : pieces_) out.push_back(piece.span.start());
  return out;
}

AbstractInstance AbstractInstance::RefinedAt(
    const std::vector<TimePoint>& cuts) const {
  AbstractInstance out(schema_);
  for (const AbstractPiece& piece : pieces_) {
    for (const Interval& sub : FragmentInterval(piece.span, cuts)) {
      out.AddPiece(sub, piece.snapshot);
    }
  }
  return out;
}

std::vector<TimePoint> AbstractInstance::Representatives() const {
  return Boundaries();
}

std::string AbstractInstance::ToString(const Universe& u) const {
  std::string out;
  for (const AbstractPiece& piece : pieces_) {
    out += piece.span.ToString();
    out += ":\n";
    std::string body = piece.snapshot.ToString(u);
    if (body.empty()) body = "(empty)\n";
    // indent
    std::size_t pos = 0;
    while (pos < body.size()) {
      std::size_t nl = body.find('\n', pos);
      if (nl == std::string::npos) nl = body.size();
      out += "  " + body.substr(pos, nl - pos) + "\n";
      pos = nl + 1;
    }
  }
  return out;
}

std::pair<AbstractInstance, AbstractInstance> AlignPieces(
    const AbstractInstance& a, const AbstractInstance& b) {
  std::vector<TimePoint> cuts = a.Boundaries();
  const std::vector<TimePoint> more = b.Boundaries();
  cuts.insert(cuts.end(), more.begin(), more.end());
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return {a.RefinedAt(cuts), b.RefinedAt(cuts)};
}

}  // namespace tdx
