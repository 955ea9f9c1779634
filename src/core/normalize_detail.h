// Internals of the normalizers: interval intersection of a hom image, the
// union-find over dense fact ids, and the null index behind the shared-null
// clusters.

#ifndef TDX_CORE_NORMALIZE_DETAIL_H_
#define TDX_CORE_NORMALIZE_DETAIL_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/interval.h"
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

/// Union-find over dense fact indices. At rest every node is its own
/// root; a pass restores that by resetting only the nodes it united, so
/// NormalizeState pays for the facts a pass touches, not for the instance.
class UnionFind {
 public:
  /// Makes room for nodes [0, n); new nodes are their own roots.
  void Grow(std::size_t n) {
    const std::size_t old = parent_.size();
    if (n <= old) return;
    parent_.resize(n);
    std::iota(parent_.begin() + old, parent_.end(), old);
  }
  std::size_t Find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(std::size_t a, std::size_t b) { parent_[Find(a)] = Find(b); }
  /// Makes `x` its own root again.
  void Reset(std::size_t x) { parent_[x] = x; }

 private:
  std::vector<std::size_t> parent_;
};

/// True when `fact` carries annotated null `null` in some argument.
inline bool CarriesNull(FactView fact, NullId null) {
  for (const Value& v : fact.args()) {
    if (v.is_annotated_null() && v.null_id() == null) return true;
  }
  return false;
}

/// The rows carrying each annotated null, the input of the shared-null
/// clusters. Facts that share an annotated null must be fragmented
/// together: fragmentation re-annotates a null to each fragment's interval,
/// and an egd rewrites one annotated value everywhere it occurs; if two
/// time-overlapping facts carrying null N were cut at different points, a
/// rewrite of one fragment of N would miss the other fact's coarser
/// spelling of the same time points, and the c-chase would drift from the
/// abstract chase (Corollary 20). So, per null id, the facts carrying it are
/// swept in start order and split into runs of transitively overlapping
/// intervals; every run of two or more facts is a cluster, and Algorithm 1
/// unions each cluster into one component.
///
/// One map from null to the rows carrying it. Build indexes a whole
/// instance; later rows, appended or rewritten, are appended to their
/// nulls' lists. Entries may go stale (a rewrite replaced the null, or a
/// rewritten tail moved the row) or repeat; every read validates a null's
/// list against the instance and compacts it, so a stale entry costs a
/// check, never a wrong cluster.
class NullIndex {
 public:
  void Clear() {
    rows_.clear();
    indexed_.clear();
  }

  /// Indexes every row of `facts`, dropping what the index held.
  void Build(const Instance& facts) {
    Clear();
    AbsorbAppends(facts);
  }

  /// Records the annotated nulls of row (rel, pos).
  void AddRow(const Instance& facts, RelationId rel, std::uint32_t pos) {
    const FactRef row{rel, pos};
    for (const Value& v : facts.facts(rel)[pos].args()) {
      if (!v.is_annotated_null()) continue;
      std::vector<FactRef>& rows = rows_[v.null_id()];
      if (rows.empty() || rows.back() != row) rows.push_back(row);
    }
  }

  /// Absorbs every row appended since the last call (or since Rewind).
  void AbsorbAppends(const Instance& facts) {
    const std::size_t num_rels = facts.schema().relation_count();
    indexed_.resize(num_rels, 0);
    for (RelationId r = 0; r < num_rels; ++r) {
      const auto n = static_cast<std::uint32_t>(facts.facts(r).size());
      for (std::uint32_t pos = indexed_[r]; pos < n; ++pos) {
        AddRow(facts, r, pos);
      }
      indexed_[r] = n;
    }
  }

  /// Rows of `rel` at `pos` and beyond are re-read by the next
  /// AbsorbAppends (they were rewritten).
  void Rewind(RelationId rel, std::uint32_t pos) {
    if (rel < indexed_.size()) indexed_[rel] = std::min(indexed_[rel], pos);
  }

  /// The rows that carry `null` now, ascending and unique, into `*out`.
  void RowsOf(const Instance& facts, NullId null, std::vector<FactRef>* out) {
    out->clear();
    const auto it = rows_.find(null);
    if (it == rows_.end()) return;
    Compact(facts, null, &it->second);
    *out = it->second;
  }

  /// Calls fn(rows) with every null's rows, as RowsOf returns them.
  template <typename Fn>
  void ForEachNull(const Instance& facts, Fn fn) {
    for (auto& [null, rows] : rows_) {
      Compact(facts, null, &rows);
      fn(static_cast<const std::vector<FactRef>&>(rows));
    }
  }

 private:
  static void Compact(const Instance& facts, NullId null,
                      std::vector<FactRef>* rows) {
    std::sort(rows->begin(), rows->end());
    rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
    rows->erase(std::remove_if(rows->begin(), rows->end(),
                               [&](const FactRef& row) {
                                 const FactColumn column = facts.facts(row.rel);
                                 return row.pos >= column.size() ||
                                        !CarriesNull(column[row.pos], null);
                               }),
                rows->end());
  }

  std::unordered_map<NullId, std::vector<FactRef>> rows_;
  /// Per relation, the rows absorbed so far.
  std::vector<std::uint32_t> indexed_;
};

}  // namespace tdx::normalize_detail

#endif  // TDX_CORE_NORMALIZE_DETAIL_H_
