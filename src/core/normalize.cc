#include "src/core/normalize.h"

#include <algorithm>
#include <map>
#include <optional>

#include "src/core/normalize_detail.h"

namespace tdx {

using normalize_detail::EmitCopy;
using normalize_detail::EmitFragments;
using normalize_detail::IntersectIntervals;
using normalize_detail::NullClusters;
using normalize_detail::UnionFind;

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
  if (guard != nullptr) {
    guard->ResetFragmentCount();
    guard->PokeFault("normalize/naive");
  }
  instance.facts().ForEach([&](FactView fact) {
    if (guard != nullptr && (guard->tripped() || !guard->CheckDeadline())) {
      return;
    }
    EmitFragments(fact, cuts, &out.mutable_facts(), guard);
  });
  if (stats != nullptr) {
    stats->input_facts = instance.size();
    stats->output_facts = out.size();
    stats->homomorphisms = 0;
    stats->groups = 0;
    stats->delta_facts = instance.size();
    stats->dirty_components = 0;
    stats->reused_components = 0;
    stats->partial = guard != nullptr && guard->tripped();
  }
  return out;
}

ConcreteInstance Normalize(const ConcreteInstance& instance,
                           const std::vector<Conjunction>& phis,
                           NormalizeStats* stats, ResourceGuard* guard,
                           NormalizeLabels* labels) {
  if (guard != nullptr) {
    guard->ResetFragmentCount();
    guard->PokeFault("normalize/algorithm1");
  }
  // Dense ids for the instance's facts: each relation column gets a base
  // offset, and a fact's id is base + its position in the column. No
  // hashing, no fact copies — the instance is immutable for the duration,
  // so views stay valid throughout.
  const Instance& facts = instance.facts();
  const std::size_t num_rels = instance.schema().relation_count();
  std::vector<std::size_t> base(num_rels, 0);
  std::size_t total = 0;
  for (RelationId r = 0; r < num_rels; ++r) {
    base[r] = total;
    total += facts.facts(r).size();
  }
  const auto dense_id = [&](FactView f) {
    return base[f.relation()] + f.pos();
  };

  // Build S (Algorithm 1, line 3): for each phi* in N(Phi+), every
  // homomorphic image whose fact intervals intersect forms a group; then
  // merge groups sharing a fact (lines 4-10) — i.e., take connected
  // components of the overlap graph, implemented with union-find. The
  // null clusters below add one more kind of group that Algorithm 1 as
  // published lacks.
  UnionFind uf(total);
  std::vector<bool> grouped(total, false);
  std::size_t hom_count = 0;
  HomomorphismFinder finder(facts);
  for (const Conjunction& phi : phis) {
    if (guard != nullptr && guard->tripped()) break;
    const Conjunction star = RenameTemporalApart(phi);
    finder.ForEach(star, Binding(star.num_vars),
                   [&](const Binding&, const AtomImage& image) {
                     // The hom sweep dominates Algorithm 1's worst case
                     // (Theorem 13), so the deadline is polled here too.
                     if (guard != nullptr && !guard->CheckDeadline()) {
                       return false;
                     }
                     ++hom_count;
                     if (!IntersectIntervals(image).has_value()) return true;
                     const std::size_t first = dense_id(image.front());
                     for (FactView f : image) {
                       const std::size_t idx = dense_id(f);
                       grouped[idx] = true;
                       uf.Union(first, idx);
                     }
                     return true;
                   });
  }
  // Facts sharing an annotated null over overlapping time are cut together.
  NullClusters clusters;
  clusters.Build(facts, base);
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    const std::size_t first = *clusters.begin(c);
    for (const std::size_t* m = clusters.begin(c); m != clusters.end(c); ++m) {
      grouped[*m] = true;
      uf.Union(first, *m);
    }
  }

  // Distinct start/end points per component (TP_Delta, lines 11-13).
  // `base` is sorted, so the owning relation is the last base offset <= id;
  // empty relations repeat their successor's offset and the upper_bound
  // lands past all of them.
  const auto fact_at = [&](std::size_t id) {
    const auto it = std::upper_bound(base.begin(), base.end(), id);
    const RelationId r = static_cast<RelationId>(it - base.begin() - 1);
    return facts.facts(r)[static_cast<std::uint32_t>(id - base[r])];
  };
  std::map<std::size_t, std::vector<TimePoint>> component_points;
  for (std::size_t i = 0; i < total; ++i) {
    if (!grouped[i]) continue;
    std::vector<TimePoint>& pts = component_points[uf.Find(i)];
    const Interval iv = fact_at(i).interval();
    pts.push_back(iv.start());
    if (!iv.unbounded()) pts.push_back(iv.end());
  }
  for (auto& [root, pts] : component_points) {
    std::sort(pts.begin(), pts.end());
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  }

  // Fragment grouped facts at their component's points (lines 14-18);
  // ungrouped facts pass through unchanged. Components are labeled densely
  // in first-emission order when the caller asked for labels.
  ConcreteInstance out(&instance.schema());
  std::map<std::size_t, std::uint32_t> comp_seq;
  if (labels != nullptr) {
    labels->comp_of.clear();
    labels->num_components = 0;
  }
  std::vector<std::uint32_t>* label_vec =
      labels != nullptr ? &labels->comp_of : nullptr;
  for (std::size_t i = 0; i < total; ++i) {
    if (guard != nullptr && guard->tripped()) break;
    const FactView fact = fact_at(i);
    if (grouped[i]) {
      const std::size_t root = uf.Find(i);
      std::uint32_t label = 0;
      if (labels != nullptr) {
        const auto [it, fresh] =
            comp_seq.emplace(root, labels->num_components);
        if (fresh) ++labels->num_components;
        label = it->second;
      }
      EmitFragments(fact, component_points.at(root), &out.mutable_facts(),
                    guard, label, label_vec);
    } else {
      EmitCopy(fact, &out.mutable_facts(), guard, NormalizeLabels::kUngrouped,
               label_vec);
    }
  }
  if (stats != nullptr) {
    stats->input_facts = instance.size();
    stats->output_facts = out.size();
    stats->homomorphisms = hom_count;
    stats->groups = component_points.size();
    stats->delta_facts = instance.size();
    stats->dirty_components = component_points.size();
    stats->reused_components = 0;
    stats->partial = guard != nullptr && guard->tripped();
  }
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
