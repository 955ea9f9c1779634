// Internals shared by the full (Algorithm 1) and incremental normalizers.
//
// These helpers define the exact emission behavior both paths must agree on
// for the incremental output to stay bit-identical to a full pass: the
// charge-then-insert order against the resource guard, the duplicate
// handling of the backing Instance (Insert dedups), and the label
// bookkeeping that only records successfully inserted rows.

#ifndef TDX_CORE_NORMALIZE_DETAIL_H_
#define TDX_CORE_NORMALIZE_DETAIL_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/interval.h"
#include "src/common/resource.h"
#include "src/relational/homomorphism.h"
#include "src/relational/instance.h"

namespace tdx::normalize_detail {

/// Intersection of the time intervals of an atom image, or nullopt when
/// empty. `image` must be non-empty.
inline std::optional<Interval> IntersectIntervals(const AtomImage& image) {
  std::optional<Interval> acc = image.front().interval();
  for (std::size_t i = 1; i < image.size() && acc.has_value(); ++i) {
    acc = acc->Intersect(image[i].interval());
  }
  return acc;
}

/// Union-find over dense fact indices, resettable so the incremental
/// normalizer can reuse its allocation across passes.
class UnionFind {
 public:
  UnionFind() = default;
  explicit UnionFind(std::size_t n) { Reset(n); }
  void Reset(std::size_t n) {
    parent_.resize(n);
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t Find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(std::size_t a, std::size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<std::size_t> parent_;
};

/// Groups of facts that must be fragmented together because they share an
/// annotated null. Fragmentation re-annotates a null to each fragment's
/// interval, and an egd rewrites one annotated value everywhere it occurs;
/// if two time-overlapping facts carrying null N were cut at different
/// points, a rewrite of one fragment of N would miss the other fact's
/// coarser spelling of the same time points, and the c-chase would drift
/// from the abstract chase (Corollary 20). So, per null id, the facts
/// carrying it are swept in start order and split into runs of
/// transitively overlapping intervals; every run of two or more facts is a
/// cluster, and both normalizers union each cluster into one component.
/// Facts are named by dense id (base[relation] + position).
class NullClusters {
 public:
  void Build(const Instance& facts, const std::vector<std::size_t>& base) {
    occ_.clear();
    members_.clear();
    begin_.assign(1, 0);
    of_fact_.clear();
    const std::size_t num_rels = facts.schema().relation_count();
    for (RelationId r = 0; r < num_rels; ++r) {
      const FactColumn column = facts.facts(r);
      for (std::uint32_t pos = 0; pos < column.size(); ++pos) {
        const FactView f = column[pos];
        const Interval iv = f.interval();
        for (const Value& v : f.args()) {
          if (v.is_annotated_null()) {
            occ_.push_back({v.null_id(), iv.start(), iv.end(), base[r] + pos});
          }
        }
      }
    }
    std::sort(occ_.begin(), occ_.end(), [](const Occ& a, const Occ& b) {
      if (a.null != b.null) return a.null < b.null;
      return a.start != b.start ? a.start < b.start : a.fact < b.fact;
    });
    // A fact carrying N twice sorts its occurrences adjacently; drop the
    // repeats so cluster sizes count distinct facts.
    occ_.erase(std::unique(occ_.begin(), occ_.end(),
                           [](const Occ& a, const Occ& b) {
                             return a.null == b.null && a.fact == b.fact;
                           }),
               occ_.end());
    std::size_t i = 0;
    while (i < occ_.size()) {
      std::size_t j = i + 1;
      TimePoint reach = occ_[i].end;
      while (j < occ_.size() && occ_[j].null == occ_[i].null &&
             occ_[j].start < reach) {
        reach = std::max(reach, occ_[j].end);
        ++j;
      }
      if (j - i >= 2) {
        const auto cluster = static_cast<std::uint32_t>(begin_.size() - 1);
        for (std::size_t k = i; k < j; ++k) {
          members_.push_back(occ_[k].fact);
          of_fact_.emplace_back(occ_[k].fact, cluster);
        }
        begin_.push_back(members_.size());
      }
      i = j;
    }
    std::sort(of_fact_.begin(), of_fact_.end());
  }

  std::size_t size() const { return begin_.size() - 1; }
  const std::size_t* begin(std::size_t c) const {
    return members_.data() + begin_[c];
  }
  const std::size_t* end(std::size_t c) const {
    return members_.data() + begin_[c + 1];
  }

  /// Calls fn(cluster) for every cluster containing fact `id`.
  template <typename Fn>
  void ForEachClusterOf(std::size_t id, const Fn& fn) const {
    auto it = std::lower_bound(
        of_fact_.begin(), of_fact_.end(),
        std::pair<std::size_t, std::uint32_t>(id, 0));
    for (; it != of_fact_.end() && it->first == id; ++it) fn(it->second);
  }

 private:
  struct Occ {
    std::uint64_t null;
    TimePoint start;
    TimePoint end;
    std::size_t fact;
  };
  std::vector<Occ> occ_;
  std::vector<std::size_t> members_;
  std::vector<std::size_t> begin_ = {0};
  std::vector<std::pair<std::size_t, std::uint32_t>> of_fact_;
};

/// Fragments `fact` at the interior cuts in `cuts` (sorted ascending,
/// duplicates tolerated) and inserts the fragments into `out`, charging
/// `guard` one unit per fragment before inserting it. Returns false when the
/// guard tripped (the fact may be partially fragmented). When `labels` is
/// non-null, pushes `label` once per fragment the Instance actually kept
/// (Insert dedups, and labels must stay parallel to the stored rows).
inline bool EmitFragments(FactView fact, const std::vector<TimePoint>& cuts,
                          Instance* out, ResourceGuard* guard,
                          std::uint32_t label = 0,
                          std::vector<std::uint32_t>* labels = nullptr) {
  const Interval iv = fact.interval();
  TimePoint cur = iv.start();
  for (auto it = std::upper_bound(cuts.begin(), cuts.end(), cur);
       it != cuts.end() && *it < iv.end(); ++it) {
    if (*it <= cur) continue;
    if (guard != nullptr && !guard->ChargeFragment()) return false;
    const bool inserted = out->Insert(fact.WithInterval(Interval(cur, *it)));
    if (labels != nullptr && inserted) labels->push_back(label);
    cur = *it;
  }
  if (guard != nullptr && !guard->ChargeFragment()) return false;
  const bool inserted = out->Insert(fact.WithInterval(Interval(cur, iv.end())));
  if (labels != nullptr && inserted) labels->push_back(label);
  return true;
}

/// Pass-through emission: one guard charge, one insert, label only on a
/// successful (non-duplicate) insert. Returns false when the guard tripped.
inline bool EmitCopy(FactView fact, Instance* out, ResourceGuard* guard,
                     std::uint32_t label = 0,
                     std::vector<std::uint32_t>* labels = nullptr) {
  if (guard != nullptr && !guard->ChargeFragment()) return false;
  const bool inserted = out->Insert(fact);
  if (labels != nullptr && inserted) labels->push_back(label);
  return true;
}

}  // namespace tdx::normalize_detail

#endif  // TDX_CORE_NORMALIZE_DETAIL_H_
