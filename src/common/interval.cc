#include "src/common/interval.h"

#include <algorithm>
#include <charconv>

namespace tdx {

Result<Interval> Interval::Make(TimePoint start, TimePoint end) {
  if (start >= end) {
    return Status::InvalidArgument("empty interval [" +
                                   TimePointToString(start) + ", " +
                                   TimePointToString(end) + ")");
  }
  return Interval(start, end);
}

std::optional<Interval> Interval::Intersect(const Interval& other) const {
  const TimePoint s = std::max(start_, other.start_);
  const TimePoint e = std::min(end_, other.end_);
  if (s >= e) return std::nullopt;
  return Interval(s, e);
}

Interval Interval::MergeWith(const Interval& other) const {
  assert(Mergeable(other));
  return Interval(std::min(start_, other.start_), std::max(end_, other.end_));
}

namespace {

void AppendTimePoint(TimePoint t, std::string* out) {
  if (t == kTimeInfinity) {
    *out += "inf";
    return;
  }
  char digits[24];
  const std::to_chars_result r =
      std::to_chars(digits, digits + sizeof digits, t);
  out->append(digits, r.ptr);
}

}  // namespace

std::string TimePointToString(TimePoint t) {
  std::string out;
  AppendTimePoint(t, &out);
  return out;
}

void Interval::AppendTo(std::string* out) const {
  *out += '[';
  AppendTimePoint(start_, out);
  *out += ", ";
  AppendTimePoint(end_, out);
  *out += ')';
}

std::string Interval::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

std::ostream& operator<<(std::ostream& os, const Interval& iv) {
  return os << iv.ToString();
}

void AppendFragments(const Interval& iv, const std::vector<TimePoint>& cuts,
                     std::vector<Interval>* out) {
  assert(std::is_sorted(cuts.begin(), cuts.end()));
  TimePoint cur = iv.start();
  // First interior cut: strictly after the start. upper_bound lands past any
  // run of duplicates, so the `<= cur` guard below only fires on duplicates
  // of cuts consumed later in the walk (which cannot occur in a sorted
  // vector) — it is kept for parity with the tolerant contract.
  for (auto it = std::upper_bound(cuts.begin(), cuts.end(), cur);
       it != cuts.end() && *it < iv.end(); ++it) {
    if (*it <= cur) continue;
    out->emplace_back(cur, *it);
    cur = *it;
  }
  out->emplace_back(cur, iv.end());
}

std::vector<Interval> FragmentInterval(const Interval& iv,
                                       const std::vector<TimePoint>& cuts) {
  std::vector<Interval> out;
  AppendFragments(iv, cuts, &out);
  return out;
}

std::vector<Interval> MergeIntervals(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::vector<Interval> runs;
  for (const Interval& iv : intervals) {
    if (!runs.empty() && runs.back().Mergeable(iv)) {
      runs.back() = runs.back().MergeWith(iv);
    } else {
      runs.push_back(iv);
    }
  }
  return runs;
}

std::vector<TimePoint> DistinctFiniteEndpoints(const std::vector<Interval>& ivs) {
  std::vector<TimePoint> pts;
  pts.reserve(ivs.size() * 2);
  for (const Interval& iv : ivs) {
    pts.push_back(iv.start());
    if (!iv.unbounded()) pts.push_back(iv.end());
  }
  std::sort(pts.begin(), pts.end());
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  return pts;
}

}  // namespace tdx
