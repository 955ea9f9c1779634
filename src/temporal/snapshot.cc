#include "src/temporal/snapshot.h"

#include <algorithm>
#include <cstdint>
#include <utility>
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

namespace {

/// std::lower_bound over sorted, distinct points, written so that the
/// compiler picks with a conditional move instead of a branch: fact
/// endpoints fall between the points at random, and the scan runs two
/// searches per fact.
std::size_t FirstAtOrAfter(const std::vector<TimePoint>& sorted,
                           TimePoint x) {
  if (sorted.empty()) return 0;
  const TimePoint* base = sorted.data();
  std::size_t n = sorted.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    base = base[half] < x ? base + half : base;
    n -= half;
  }
  return static_cast<std::size_t>(base - sorted.data()) + (*base < x ? 1 : 0);
}

}  // namespace

std::size_t SnapshotPieces::PieceOf(TimePoint l) const {
  const auto it = std::lower_bound(points.begin(), points.end(), l);
  return piece_of[it - points.begin()];
}

SnapshotPieces SplitSnapshots(const ConcreteInstance& instance,
                              std::vector<TimePoint> points) {
  SnapshotPieces pieces;
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  pieces.points = std::move(points);
  const std::vector<TimePoint>& sorted = pieces.points;

  // The scan. A fact over [s, e) holds at the points with indexes in
  // [lower_bound(s), lower_bound(e)); each bound, when interior, cuts.
  struct Covered {
    FactRef ref;
    std::uint32_t lo;
    std::uint32_t hi;
  };
  std::vector<Covered> covered;
  std::vector<char> cut(sorted.size(), 0);
  const auto first_at_or_after = [&](TimePoint x) {
    const std::size_t j = FirstAtOrAfter(sorted, x);
    if (j != 0 && j != sorted.size()) cut[j] = 1;
    return static_cast<std::uint32_t>(j);
  };
  instance.facts().ForEach([&](FactView fact) {
    const Interval iv = fact.interval();
    const std::uint32_t lo = first_at_or_after(iv.start());
    const std::uint32_t hi = iv.unbounded()
                                 ? static_cast<std::uint32_t>(sorted.size())
                                 : first_at_or_after(iv.end());
    if (lo < hi) covered.push_back({{fact.relation(), fact.pos()}, lo, hi});
  });

  pieces.piece_of.resize(sorted.size());
  for (std::size_t j = 0; j < sorted.size(); ++j) {
    if (j == 0 || cut[j] != 0) pieces.firsts.push_back(sorted[j]);
    pieces.piece_of[j] = pieces.firsts.size() - 1;
  }
  // Both bounds of a fact's range cut, so it covers whole pieces.
  pieces.rows.resize(pieces.firsts.size());
  for (const Covered& c : covered) {
    for (std::size_t k = pieces.piece_of[c.lo]; k <= pieces.piece_of[c.hi - 1];
         ++k) {
      pieces.rows[k].push_back(c.ref);
    }
  }
  return pieces;
}

Result<Instance> MaterializePiece(const ConcreteInstance& instance,
                                  const SnapshotPieces& pieces,
                                  std::size_t k) {
  const Schema& schema = instance.schema();
  Instance out(&schema);
  // Rows come grouped by relation (source order), so each group resolves
  // its twin once.
  bool have_twin = false;
  RelationId rel = 0;
  RelationId twin = 0;
  for (const FactRef& ref : pieces.rows[k]) {
    if (!have_twin || ref.rel != rel) {
      TDX_ASSIGN_OR_RETURN(twin, schema.TwinOf(ref.rel));
      rel = ref.rel;
      have_twin = true;
    }
    const FactView fact = instance.facts().facts(ref.rel)[ref.pos];
    out.InsertSpan(twin, fact.args().data(), fact.arity() - 1);
  }
  return out;
}

}  // namespace tdx
