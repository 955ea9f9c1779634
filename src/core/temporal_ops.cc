#include "src/core/temporal_ops.h"

#include <algorithm>
#include <map>
#include <vector>

#include "src/common/interval.h"

namespace tdx {

std::string_view TemporalOpName(TemporalOp op) {
  switch (op) {
    case TemporalOp::kOncePast:
      return "once_past";
    case TemporalOp::kAlwaysPast:
      return "always_past";
    case TemporalOp::kOnceFuture:
      return "once_future";
    case TemporalOp::kAlwaysFuture:
      return "always_future";
  }
  return "?";
}

bool TemporalOpFromName(std::string_view name, TemporalOp* out) {
  for (TemporalOp op : {TemporalOp::kOncePast, TemporalOp::kAlwaysPast,
                        TemporalOp::kOnceFuture, TemporalOp::kAlwaysFuture}) {
    if (TemporalOpName(op) == name) {
      *out = op;
      return true;
    }
  }
  return false;
}

std::string ClosureRelationName(std::string_view base, TemporalOp op) {
  std::string out(base);
  out += "__";
  out += TemporalOpName(op);
  return out;
}

namespace {

/// The (possibly empty) interval at which op(R(a)) holds, given the
/// maximal runs (MergeIntervals) at which R(a) holds.
std::optional<Interval> ClosureSpan(const std::vector<Interval>& runs,
                                    TemporalOp op) {
  if (runs.empty()) return std::nullopt;
  switch (op) {
    case TemporalOp::kOncePast:
      // Some l' <= l with R true: from the earliest start, forever.
      return Interval::FromStart(runs.front().start());
    case TemporalOp::kAlwaysPast: {
      // Every l' <= l: only while the run that starts at time 0 persists.
      if (runs.front().start() != 0) return std::nullopt;
      return runs.front();
    }
    case TemporalOp::kOnceFuture: {
      // Some l' >= l: until the last run dies (everything if unbounded).
      const Interval& last = runs.back();
      if (last.unbounded()) return Interval::FromStart(0);
      return Interval(0, last.end());
    }
    case TemporalOp::kAlwaysFuture: {
      // Every l' >= l: only inside an unbounded final run.
      const Interval& last = runs.back();
      if (!last.unbounded()) return std::nullopt;
      return last;
    }
  }
  return std::nullopt;
}

}  // namespace

Status MaterializeClosure(const ConcreteInstance& source, RelationId rel,
                          TemporalOp op, RelationId closure_rel,
                          ConcreteInstance* out) {
  const Schema& schema = source.schema();
  const RelationSchema& base = schema.relation(rel);
  const RelationSchema& closure = schema.relation(closure_rel);
  if (!base.temporal || !closure.temporal) {
    return Status::InvalidArgument(
        "temporal closures require temporal relations");
  }
  if (base.data_arity() != closure.data_arity()) {
    return Status::InvalidArgument("closure relation '" + closure.name +
                                   "' must match the data arity of '" +
                                   base.name + "'");
  }

  // Group the base facts by data tuple.
  std::map<std::vector<Value>, std::vector<Interval>> groups;
  for (const FactView fact : source.facts().facts(rel)) {
    for (const Value& v : fact.args()) {
      if (v.is_any_null()) {
        return Status::InvalidArgument(
            "temporal closures are defined on complete relations; '" +
            base.name + "' contains nulls");
      }
    }
    std::vector<Value> data(fact.args().begin(), fact.args().end() - 1);
    groups[std::move(data)].push_back(fact.interval());
  }

  for (auto& [data, ivs] : groups) {
    const std::optional<Interval> span =
        ClosureSpan(MergeIntervals(std::move(ivs)), op);
    if (!span.has_value()) continue;
    TDX_RETURN_IF_ERROR(out->Add(closure_rel, data, *span));
  }
  return Status::OK();
}

}  // namespace tdx
