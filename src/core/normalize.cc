#include "src/core/normalize.h"

#include <optional>

#include "src/core/normalize_detail.h"
#include "src/core/normalize_incremental.h"

namespace tdx {

using normalize_detail::IntersectIntervals;

Conjunction RenameTemporalApart(const Conjunction& phi) {
  Conjunction out = phi;
  VarId next = static_cast<VarId>(out.num_vars);
  for (Atom& atom : out.atoms) {
    assert(!atom.terms.empty());
    atom.terms.back() = Term::Var(next++);
  }
  out.num_vars = next;
  out.var_names.resize(next);
  for (std::size_t i = phi.num_vars; i < next; ++i) {
    out.var_names[i] = "t" + std::to_string(i - phi.num_vars + 1);
  }
  return out;
}

ConcreteInstance NaiveNormalize(const ConcreteInstance& instance,
                                NormalizeStats* stats, ResourceGuard* guard) {
  const std::vector<TimePoint> cuts = instance.Endpoints();
  ConcreteInstance out(&instance.schema());
  if (guard != nullptr) guard->PokeFault("normalize/naive");
  // Each fragment is admitted before it is inserted.
  std::size_t fragment_count = 0;
  std::vector<Interval> fragments;
  instance.facts().ForEach([&](FactView fact) {
    if (guard != nullptr && (guard->tripped() || !guard->CheckDeadline())) {
      return;
    }
    fragments.clear();
    AppendFragments(fact.interval(), cuts, &fragments);
    for (const Interval& sub : fragments) {
      if (guard != nullptr && !guard->AdmitFragments(++fragment_count)) {
        return;
      }
      out.mutable_facts().Insert(fact.WithInterval(sub));
    }
  });
  if (stats != nullptr) {
    *stats = NormalizeStats{.input_facts = instance.size(),
                            .output_facts = out.size(),
                            .delta_facts = instance.size(),
                            .rows_visited = instance.size() + out.size(),
                            .passes = 1,
                            .full_passes = 1,
                            .partial = guard != nullptr && guard->tripped()};
  }
  return out;
}

ConcreteInstance Normalize(const ConcreteInstance& instance,
                           const std::vector<Conjunction>& phis,
                           NormalizeStats* stats, ResourceGuard* guard) {
  // A pass from an empty watermark over a copy of the input, through a
  // scratch state.
  ConcreteInstance out = instance;
  NormalizeState state;
  state.Pass(&out.mutable_facts(), phis, stats, guard);
  return out;
}

bool HasEmptyIntersectionProperty(const ConcreteInstance& instance,
                                  const std::vector<Conjunction>& phis) {
  HomomorphismFinder finder(instance.facts());
  for (const Conjunction& phi : phis) {
    const Conjunction star = RenameTemporalApart(phi);
    Binding binding(star.num_vars);
    HomomorphismFinder::Cursor cursor = finder.Open(star, &binding);
    while (cursor.Next()) {
      const std::optional<Interval> inter = IntersectIntervals(cursor.image());
      if (!inter.has_value()) continue;  // condition 1
      // Condition 2: intersection == union, i.e. all image facts carry one
      // identical interval.
      for (FactView f : cursor.image()) {
        if (f.interval() != *inter) return false;
      }
    }
  }
  return true;
}

}  // namespace tdx
