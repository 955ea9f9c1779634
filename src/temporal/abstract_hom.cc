#include "src/temporal/abstract_hom.h"

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/relational/homomorphism.h"
#include "src/relational/universal.h"

namespace tdx {

namespace {

/// Per-piece symbolic conjunction: which variable stands for which null.
struct PieceProblem {
  Conjunction conj;
  /// Local var -> the labeled null id it stands for (only for labeled nulls
  /// of the domain; annotated nulls are piece-local and unconstrained).
  std::vector<std::pair<VarId, NullId>> labeled_vars;
};

PieceProblem BuildPieceProblem(const Instance& snapshot) {
  PieceProblem problem;
  std::unordered_map<Value, VarId, ValueHash> null_vars;
  problem.conj = InstanceToConjunction(snapshot, &null_vars);
  for (const auto& [null, var] : null_vars) {
    if (null.is_null()) problem.labeled_vars.emplace_back(var, null.null_id());
  }
  return problem;
}

class AbstractHomSearch {
 public:
  AbstractHomSearch(const AbstractInstance& from, const AbstractInstance& to)
      : from_(&from), to_(&to) {
    // The overlaps of the two piece lists, left to right: each `from` piece
    // meets the `to` pieces its span crosses. Both lists cover [0, inf), so
    // the walk advances whichever piece ends first (both when they end
    // together) and stops at the two unbounded tails.
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < from.pieces().size() && j < to.pieces().size()) {
      overlaps_.emplace_back(i, j);
      const Interval& a = from.pieces()[i].span;
      const Interval& b = to.pieces()[j].span;
      if (a.end() <= b.end()) ++i;
      if (b.end() <= a.end()) ++j;
    }
    // A labeled null may take an annotated (projected) image only when it
    // occupies a single snapshot: exactly one overlap, of span length 1.
    // Counting `from` pieces gives the same answer: a piece of length 1
    // has one overlap, of length 1, and a longer piece has either several
    // overlaps or one as long as itself.
    std::unordered_map<NullId, std::pair<std::size_t, std::size_t>>
        occurrence;  // null -> (#pieces it occurs in, index of last one)
    for (std::size_t p = 0; p < from.pieces().size(); ++p) {
      std::unordered_set<NullId> here;
      from.pieces()[p].snapshot.ForEach([&](FactView fact) {
        for (const Value& v : fact.args()) {
          if (v.is_null()) here.insert(v.null_id());
        }
      });
      for (NullId n : here) {
        auto [it, inserted] = occurrence.emplace(n, std::make_pair(1u, p));
        if (!inserted) {
          ++it->second.first;
          it->second.second = p;
        }
      }
    }
    for (const auto& [n, occ] : occurrence) {
      const auto& [count, piece] = occ;
      const auto len = from.pieces()[piece].span.length();
      if (count == 1 && len.has_value() && *len == 1) {
        single_snapshot_nulls_.insert(n);
      }
    }
  }

  /// Depth-first over the overlaps, one cursor per overlap on an explicit
  /// stack.
  bool Run() {
    const std::size_t n = overlaps_.size();
    if (n == 0) return true;
    std::vector<std::unique_ptr<Level>> stack;
    stack.push_back(Enter(0));
    while (!stack.empty()) {
      Level& level = *stack.back();
      for (NullId null : level.added) global_.erase(null);
      level.added.clear();
      if (!level.cursor.Next()) {
        stack.pop_back();
      } else if (Extend(&level)) {
        if (stack.size() == n) return true;
        stack.push_back(Enter(stack.size()));
      }
    }
    return false;
  }

 private:
  /// One overlap of the search: the symbolic problem of its `from` piece,
  /// the binding its cursor extends into the `to` piece (with the labeled
  /// nulls that earlier overlaps fixed already bound), and the labeled
  /// nulls its current match added to global_.
  struct Level {
    Level(PieceProblem p, const Instance& to, const Binding& fixed)
        : problem(std::move(p)),
          binding(fixed),
          finder(to),
          cursor(finder.Open(problem.conj, &binding)) {}
    PieceProblem problem;
    Binding binding;
    HomomorphismFinder finder;
    HomomorphismFinder::Cursor cursor;
    std::vector<NullId> added;
  };

  std::unique_ptr<Level> Enter(std::size_t k) {
    const auto [i, j] = overlaps_[k];
    PieceProblem problem = BuildPieceProblem(from_->pieces()[i].snapshot);
    Binding fixed(problem.conj.num_vars);
    for (const auto& [var, null] : problem.labeled_vars) {
      auto it = global_.find(null);
      if (it != global_.end()) fixed.Bind(var, it->second);
    }
    return std::make_unique<Level>(std::move(problem),
                                   to_->pieces()[j].snapshot, fixed);
  }

  /// Validates the level's current match and records the images of its
  /// labeled nulls that are new to global_.
  bool Extend(Level* level) {
    for (const auto& [var, null] : level->problem.labeled_vars) {
      const Value& image = level->binding.Get(var);
      if (image.is_annotated_null() &&
          single_snapshot_nulls_.count(null) == 0) {
        return false;  // would violate condition 2 across snapshots
      }
      if (global_.emplace(null, image).second) level->added.push_back(null);
    }
    return true;
  }

  const AbstractInstance* from_;
  const AbstractInstance* to_;
  std::unordered_map<NullId, Value> global_;
  std::unordered_set<NullId> single_snapshot_nulls_;
  /// (from piece, to piece) of every overlap, left to right.
  std::vector<std::pair<std::size_t, std::size_t>> overlaps_;
};

}  // namespace

bool AbstractHomomorphismExists(const AbstractInstance& from,
                                const AbstractInstance& to) {
  return AbstractHomSearch(from, to).Run();
}

bool AreAbstractEquivalent(const AbstractInstance& a,
                           const AbstractInstance& b) {
  return AbstractHomomorphismExists(a, b) &&
         AbstractHomomorphismExists(b, a);
}

}  // namespace tdx
