// Time points and half-open time intervals [s, e).
//
// The paper (Section 2) models time as a totally ordered domain isomorphic
// to the non-negative integers N0. Concrete facts are stamped with intervals
// of the form [s, e) or [s, inf), s, e in N0. We represent a time point as a
// uint64_t and the open right endpoint "infinity" as kTimeInfinity.
//
// All interval algebra needed by the paper lives here: intersection, union
// of adjacent/overlapping intervals, adjacency (Section 2: two intervals
// [s,e) and [s',e') are adjacent iff s' = e or s = e'), containment of time
// points, and the endpoint enumeration used by the normalization algorithms
// (Section 4.2).

#ifndef TDX_COMMON_INTERVAL_H_
#define TDX_COMMON_INTERVAL_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace tdx {

/// A discrete time point; the domain is N0.
using TimePoint = std::uint64_t;

/// Sentinel for the open right endpoint "infinity" in [s, inf).
inline constexpr TimePoint kTimeInfinity = UINT64_MAX;

/// A non-empty half-open interval [start, end) with end possibly infinite.
///
/// Invariant: start < end (empty intervals are not representable; the paper
/// never produces them and forbidding them removes a class of bugs).
///
/// The asserting constructor is for internal trusted callers, where the
/// invariant is established by the algebra (the assert vanishes in release
/// builds). Code handling *untrusted* endpoints — the parser and any other
/// deserialization boundary — must go through the checked factory Make(), so
/// malformed input can never construct an empty interval in a release build.
class Interval {
 public:
  /// Constructs [start, end). Asserts non-emptiness; trusted callers only.
  constexpr Interval(TimePoint start, TimePoint end) : start_(start), end_(end) {
    assert(start < end && "Interval must be non-empty");
  }

  /// Checked factory for untrusted endpoints: InvalidArgument when the
  /// interval would be empty (start >= end).
  static Result<Interval> Make(TimePoint start, TimePoint end);

  /// Constructs [start, inf).
  static constexpr Interval FromStart(TimePoint start) {
    return Interval(start, kTimeInfinity);
  }

  constexpr TimePoint start() const { return start_; }
  constexpr TimePoint end() const { return end_; }
  constexpr bool unbounded() const { return end_ == kTimeInfinity; }

  /// Number of time points covered; nullopt for unbounded intervals.
  constexpr std::optional<std::uint64_t> length() const {
    if (unbounded()) return std::nullopt;
    return end_ - start_;
  }

  /// Does this interval contain the time point `t`?
  constexpr bool Contains(TimePoint t) const { return start_ <= t && t < end_; }

  /// Does this interval contain every point of `other`?
  constexpr bool Contains(const Interval& other) const {
    return start_ <= other.start_ && other.end_ <= end_;
  }

  /// Do the two intervals share at least one time point?
  constexpr bool Overlaps(const Interval& other) const {
    return start_ < other.end_ && other.start_ < end_;
  }

  /// Adjacency per Section 2: [s,e), [s',e') are adjacent iff s' = e or
  /// s = e'. Adjacent intervals are disjoint but their union is an interval.
  constexpr bool AdjacentTo(const Interval& other) const {
    return other.start_ == end_ || start_ == other.end_;
  }

  /// Overlapping or adjacent: the union is a single interval.
  constexpr bool Mergeable(const Interval& other) const {
    return Overlaps(other) || AdjacentTo(other);
  }

  /// Intersection, or nullopt when disjoint.
  std::optional<Interval> Intersect(const Interval& other) const;

  /// Union of two mergeable intervals. Asserts Mergeable(other).
  Interval MergeWith(const Interval& other) const;

  /// Renders as "[s, e)" with "inf" for the unbounded endpoint.
  std::string ToString() const;
  /// Appends ToString() to *out, building no temporary string.
  void AppendTo(std::string* out) const;

  friend constexpr bool operator==(const Interval& a, const Interval& b) {
    return a.start_ == b.start_ && a.end_ == b.end_;
  }
  friend constexpr bool operator!=(const Interval& a, const Interval& b) {
    return !(a == b);
  }
  /// Lexicographic (start, end) order; used for canonical sorting.
  friend constexpr bool operator<(const Interval& a, const Interval& b) {
    return a.start_ != b.start_ ? a.start_ < b.start_ : a.end_ < b.end_;
  }

 private:
  TimePoint start_;
  TimePoint end_;
};

std::ostream& operator<<(std::ostream& os, const Interval& iv);

/// Renders a time point, using "inf" for kTimeInfinity.
std::string TimePointToString(TimePoint t);

struct IntervalHash {
  std::size_t operator()(const Interval& iv) const {
    std::size_t h = std::hash<TimePoint>()(iv.start());
    h ^= std::hash<TimePoint>()(iv.end()) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
    return h;
  }
};

/// Fragments `iv` at the sorted cut points in `cuts` (only interior cuts
/// apply), producing consecutive sub-intervals whose union is `iv`. This is
/// the fragmentation primitive shared by both normalization algorithms
/// (Section 4.2): a fact with interval [s_i, e_i) is fragmented at every
/// distinct start/end point falling strictly inside it.
///
/// `cuts` must be sorted ascending; duplicates are tolerated. Binary-searches
/// the first interior cut, so the cost is O(log |cuts| + fragments) rather
/// than a scan of the whole cut vector.
std::vector<Interval> FragmentInterval(const Interval& iv,
                                       const std::vector<TimePoint>& cuts);

/// Appends the fragments of `iv` at the interior cuts in `cuts` to `*out`
/// without clearing it. Same contract as FragmentInterval; this is the
/// allocation-free form used by the normalizers' hot emission loops.
void AppendFragments(const Interval& iv, const std::vector<TimePoint>& cuts,
                     std::vector<Interval>* out);

/// The union of `intervals` as maximal runs: sorted by start, pairwise
/// disjoint and non-adjacent. Sorts, then merges mergeable neighbours.
std::vector<Interval> MergeIntervals(std::vector<Interval> intervals);

/// Collects the distinct endpoints (starts and finite ends, including
/// kTimeInfinity sentinels filtered out) of `ivs`, sorted ascending.
/// Infinite right endpoints are not cut points, so they are omitted.
std::vector<TimePoint> DistinctFiniteEndpoints(const std::vector<Interval>& ivs);

}  // namespace tdx

#endif  // TDX_COMMON_INTERVAL_H_
