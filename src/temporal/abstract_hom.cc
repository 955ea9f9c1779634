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
    // A labeled null may take an annotated (projected) image only when it
    // occupies a single snapshot: exactly one piece, of span length 1.
    std::unordered_map<NullId, std::pair<std::size_t, std::size_t>>
        occurrence;  // null -> (#pieces it occurs in, index of last one)
    for (std::size_t i = 0; i < from.pieces().size(); ++i) {
      std::unordered_set<NullId> here;
      from.pieces()[i].snapshot.ForEach([&](FactView fact) {
        for (const Value& v : fact.args()) {
          if (v.is_null()) here.insert(v.null_id());
        }
      });
      for (NullId n : here) {
        auto [it, inserted] = occurrence.emplace(n, std::make_pair(1u, i));
        if (!inserted) {
          ++it->second.first;
          it->second.second = i;
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

  /// Depth-first over the pieces, one cursor per piece on an explicit stack.
  bool Run() {
    const std::size_t n = from_->pieces().size();
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
  /// One piece of the search: its symbolic problem, the binding its cursor
  /// extends (with the labeled nulls that earlier pieces fixed already
  /// bound), and the labeled nulls its current match added to global_.
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

  std::unique_ptr<Level> Enter(std::size_t i) {
    PieceProblem problem = BuildPieceProblem(from_->pieces()[i].snapshot);
    Binding fixed(problem.conj.num_vars);
    for (const auto& [var, null] : problem.labeled_vars) {
      auto it = global_.find(null);
      if (it != global_.end()) fixed.Bind(var, it->second);
    }
    return std::make_unique<Level>(std::move(problem),
                                   to_->pieces()[i].snapshot, fixed);
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
};

}  // namespace

bool AbstractHomomorphismExists(const AbstractInstance& from,
                                const AbstractInstance& to) {
  auto [a, b] = AlignPieces(from, to);
  assert(a.pieces().size() == b.pieces().size());
  return AbstractHomSearch(a, b).Run();
}

bool AreAbstractEquivalent(const AbstractInstance& a,
                           const AbstractInstance& b) {
  return AbstractHomomorphismExists(a, b) &&
         AbstractHomomorphismExists(b, a);
}

}  // namespace tdx
