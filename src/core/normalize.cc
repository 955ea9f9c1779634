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

void NormalizeStats::Accumulate(const NormalizeStats& pass) {
  passes += pass.passes;
  full_passes += pass.full_passes;
  partial = pass.partial;
  if (pass.partial) return;
  input_facts = pass.input_facts;
  output_facts = pass.output_facts;
  homomorphisms += pass.homomorphisms;
  groups += pass.groups;
  delta_facts += pass.delta_facts;
  dirty_components += pass.dirty_components;
  reused_components += pass.reused_components;
  rows_visited += pass.rows_visited;
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
    stats->input_facts = instance.size();
    stats->output_facts = out.size();
    stats->homomorphisms = 0;
    stats->groups = 0;
    stats->delta_facts = instance.size();
    stats->dirty_components = 0;
    stats->reused_components = 0;
    stats->rows_visited = instance.size() + out.size();
    stats->passes = 1;
    stats->full_passes = 1;
    stats->partial = guard != nullptr && guard->tripped();
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
    bool ok = true;
    finder.ForEach(star, Binding(star.num_vars),
                   [&](const Binding&, const AtomImage& image) {
                     const std::optional<Interval> inter =
                         IntersectIntervals(image);
                     if (!inter.has_value()) return true;  // condition 1
                     // Condition 2: intersection == union, i.e. all image
                     // facts carry one identical interval.
                     for (FactView f : image) {
                       if (f.interval() != *inter) {
                         ok = false;
                         return false;
                       }
                     }
                     return true;
                   });
    if (!ok) return false;
  }
  return true;
}

}  // namespace tdx
