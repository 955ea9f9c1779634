#include "src/core/satisfaction.h"

#include <algorithm>

#include "src/relational/homomorphism.h"
#include "src/temporal/snapshot.h"

namespace tdx {

namespace {

/// Every homomorphism from `tgd.body` into `body_side` must extend to a
/// homomorphism of `tgd.head` into `head_side`.
bool TgdSatisfied(const Tgd& tgd, const Instance& body_side,
                  const Instance& head_side) {
  HomomorphismFinder body_finder(body_side);
  HomomorphismFinder head_finder(head_side);
  Binding binding(tgd.num_vars());
  HomomorphismFinder::Cursor cursor = body_finder.Open(tgd.body, &binding);
  while (cursor.Next()) {
    // The head's cursor extends the body match and restores it on return.
    if (!head_finder.Exists(tgd.head, &binding)) return false;
  }
  return true;
}

bool EgdSatisfied(const Egd& egd, const Instance& target) {
  HomomorphismFinder finder(target);
  Binding binding(egd.num_vars());
  HomomorphismFinder::Cursor cursor = finder.Open(egd.body, &binding);
  while (cursor.Next()) {
    if (binding.Get(egd.x1) != binding.Get(egd.x2)) return false;
  }
  return true;
}

}  // namespace

SatisfactionReport CheckSnapshotSolution(const Instance& source,
                                         const Instance& target,
                                         const Mapping& mapping) {
  SatisfactionReport report;
  for (const Tgd& tgd : mapping.st_tgds) {
    if (!TgdSatisfied(tgd, source, target)) {
      report.satisfied = false;
      report.violation = "s-t tgd '" + tgd.label + "' violated";
      return report;
    }
  }
  for (const Tgd& tgd : mapping.target_tgds) {
    if (!TgdSatisfied(tgd, target, target)) {
      report.satisfied = false;
      report.violation = "target tgd '" + tgd.label + "' violated";
      return report;
    }
  }
  for (const Egd& egd : mapping.egds) {
    if (!EgdSatisfied(egd, target)) {
      report.satisfied = false;
      report.violation = "egd '" + egd.label + "' violated";
      return report;
    }
  }
  return report;
}

Result<SatisfactionReport> CheckSolution(const ConcreteInstance& source,
                                         const ConcreteInstance& target,
                                         const Mapping& mapping,
                                         Universe* universe) {
  // Representative time points: 0, every endpoint of either instance, and
  // one point past the last change (the stable tail).
  std::vector<TimePoint> points = source.Endpoints();
  {
    const std::vector<TimePoint> more = target.Endpoints();
    points.insert(points.end(), more.begin(), more.end());
  }
  points.push_back(0);
  points.push_back(std::max(source.StabilizationPoint(),
                            target.StabilizationPoint()) +
                   1);
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());

  for (TimePoint l : points) {
    TDX_ASSIGN_OR_RETURN(Instance src_snap, SnapshotAt(source, l, universe));
    TDX_ASSIGN_OR_RETURN(Instance tgt_snap, SnapshotAt(target, l, universe));
    SatisfactionReport report =
        CheckSnapshotSolution(src_snap, tgt_snap, mapping);
    if (!report.satisfied) {
      report.violation += " at time " + TimePointToString(l);
      report.violation_time = l;
      return report;
    }
  }
  return SatisfactionReport{};
}

}  // namespace tdx
