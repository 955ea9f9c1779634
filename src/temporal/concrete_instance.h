// Concrete temporal instances.
//
// The concrete view (Section 2) summarizes temporal data in a single
// database instance over R+ in which every fact is stamped with the time
// interval during which it holds: R+(a1, ..., an, [s, e)). A ConcreteInstance
// wraps a relational Instance whose facts all belong to temporal relations
// and enforces the representation invariants:
//
//  * every fact's last argument is an interval value (the paper's f[T]);
//  * every interval-annotated null occurring among the data arguments is
//    annotated with exactly the fact's time interval (Section 4.2, after
//    Example 12: "the annotation is always equal to the time interval of
//    the fact the interval-annotated null occurs in").
//
// Source instances are complete (constants and intervals only); target
// instances produced by the c-chase additionally contain interval-annotated
// nulls.

#ifndef TDX_TEMPORAL_CONCRETE_INSTANCE_H_
#define TDX_TEMPORAL_CONCRETE_INSTANCE_H_

#include <vector>

#include "src/common/status.h"
#include "src/relational/instance.h"

namespace tdx {

class ConcreteInstance {
 public:
  explicit ConcreteInstance(const Schema* schema) : facts_(schema) {}
  /// Wraps an existing relational instance. Call Validate() to check the
  /// representation invariants.
  explicit ConcreteInstance(Instance instance) : facts_(std::move(instance)) {}

  const Schema& schema() const { return facts_.schema(); }
  const Instance& facts() const { return facts_; }
  Instance& mutable_facts() { return facts_; }

  /// Adds the fact rel(data..., iv). Returns InvalidArgument if `rel` is not
  /// temporal, the arity is wrong, or a data value is an interval or a
  /// mis-annotated null. Duplicate facts are silently ignored.
  Status Add(RelationId rel, std::vector<Value> data, const Interval& iv);

  /// Adds the fact rel(row...), whose last value must be its interval;
  /// the same checks as above. Copies the row and allocates nothing else.
  Status Add(RelationId rel, ValueSpan row);

  /// Checks every stored fact against the representation invariants.
  Status Validate() const;

  /// True if the instance contains no nulls of either kind (the paper's
  /// "complete" instances; source instances must be complete).
  bool IsComplete() const;

  /// Distinct finite endpoints of all fact intervals, sorted ascending.
  std::vector<TimePoint> Endpoints() const;

  /// A time point m such that every snapshot db_l with l >= m is equal to
  /// db_m (the finite change condition, Section 2). Returns the largest
  /// finite endpoint, or 0 for an empty instance.
  TimePoint StabilizationPoint() const;

  /// True if facts with identical data attribute values have pairwise
  /// disjoint and non-adjacent time intervals (Section 2). Annotated nulls
  /// are compared by null id, ignoring annotation, since fragments of one
  /// null denote the same underlying sequence.
  bool IsCoalesced() const;

  std::size_t size() const { return facts_.size(); }
  bool empty() const { return facts_.empty(); }

  std::string ToString(const Universe& u) const { return facts_.ToString(u); }

 private:
  Instance facts_;
};

}  // namespace tdx

#endif  // TDX_TEMPORAL_CONCRETE_INSTANCE_H_
