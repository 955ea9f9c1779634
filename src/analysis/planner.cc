#include "src/analysis/planner.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>

#include "src/analysis/termination.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace tdx {

namespace {

std::string RuleName(const std::string& label, std::size_t index) {
  return label.empty() ? ("#" + std::to_string(index + 1)) : label;
}

/// The planner's working view of the mapping: every rule as a graph node.
/// Rule ids are st-tgds, then target tgds, then egds, declaration order.
struct RuleView {
  const Mapping* mapping = nullptr;
  std::size_t st = 0;     ///< number of s-t tgds
  std::size_t tgd = 0;    ///< number of target tgds
  std::size_t egd = 0;    ///< number of egds
  std::size_t total() const { return st + tgd + egd; }

  bool is_st(std::size_t id) const { return id < st; }
  bool is_target(std::size_t id) const { return id >= st && id < st + tgd; }
  bool is_egd(std::size_t id) const { return id >= st + tgd; }

  /// The tgd behind a tgd rule id (st or target).
  const Tgd& tgd_of(std::size_t id) const {
    return is_st(id) ? mapping->st_tgds[id] : mapping->target_tgds[id - st];
  }
  const Egd& egd_of(std::size_t id) const {
    return mapping->egds[id - st - tgd];
  }
  /// Body conjunction of a TARGET-side rule (target tgd or egd); st-tgd
  /// bodies read the source and are outside the derivability analysis.
  const Conjunction& target_body(std::size_t id) const {
    return is_egd(id) ? egd_of(id).body : tgd_of(id).body;
  }
  std::size_t mapping_index(std::size_t id) const {
    if (is_st(id)) return id;
    if (is_target(id)) return id - st;
    return id - st - tgd;
  }
};

}  // namespace

PlanDetails PlanChaseDetailed(const Mapping& mapping, const Schema& schema) {
  TDX_TRACE_SPAN("planner.plan_chase");
  static obs::Counter plans_metric("planner.plans");
  static obs::Gauge strata_metric("planner.schedule_strata");
  plans_metric.Inc();
  PlanDetails details;
  ChaseSchedule& schedule = details.schedule;

  RuleView view;
  view.mapping = &mapping;
  view.st = mapping.st_tgds.size();
  view.tgd = mapping.target_tgds.size();
  view.egd = mapping.egds.size();
  const std::size_t n = view.total();

  schedule.rules.resize(n);
  for (std::size_t id = 0; id < n; ++id) {
    ScheduleRule& rule = schedule.rules[id];
    rule.index = view.mapping_index(id);
    if (view.is_st(id)) {
      rule.kind = ScheduleRuleKind::kStTgd;
      rule.name = RuleName(view.tgd_of(id).label, rule.index);
    } else if (view.is_target(id)) {
      rule.kind = ScheduleRuleKind::kTargetTgd;
      rule.name = RuleName(view.tgd_of(id).label, rule.index);
    } else {
      rule.kind = ScheduleRuleKind::kEgd;
      rule.name = RuleName(view.egd_of(id).label, rule.index);
    }
  }
  if (n == 0) return details;

  // Existential-variable sets, precomputed per tgd rule.
  std::vector<std::unordered_set<VarId>> existential(view.st + view.tgd);
  for (std::size_t id = 0; id < view.st + view.tgd; ++id) {
    const Tgd& tgd = view.tgd_of(id);
    existential[id].insert(tgd.existential.begin(), tgd.existential.end());
  }

  // ---- liveness: which rules can ever fire ------------------------------
  //
  // Facts only enter the target through the heads of live tgds, and no
  // later chase step (egd merge, c-chase normalization) changes a fact's
  // relation or constant arguments. So a body atom is derivable iff some
  // live head atom is constant-compatible with it, and rule liveness is
  // the least fixpoint of "all body atoms derivable".
  std::vector<bool> live(n, false);
  for (std::size_t id = 0; id < view.st; ++id) live[id] = true;

  const auto atom_derivable = [&](const Atom& body_atom) {
    for (std::size_t id = 0; id < view.st + view.tgd; ++id) {
      if (!live[id]) continue;
      for (const Atom& head : view.tgd_of(id).head.atoms) {
        if (AtomsCompatible(head, body_atom)) return true;
      }
    }
    return false;
  };
  const auto body_live = [&](const Conjunction& body) {
    for (const Atom& atom : body.atoms) {
      if (!atom_derivable(atom)) return false;
    }
    return true;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t id = view.st; id < view.st + view.tgd; ++id) {
      if (live[id] || !body_live(view.tgd_of(id).body)) continue;
      live[id] = true;
      changed = true;
    }
  }
  for (std::size_t id = view.st + view.tgd; id < n; ++id) {
    live[id] = body_live(view.egd_of(id).body);
  }

  // Why a dead rule is dead: the first underivable body atom, with the
  // sharper message when the relation IS written but every writer clashes.
  const auto dead_reason = [&](const Conjunction& body) -> std::string {
    for (const Atom& atom : body.atoms) {
      if (atom_derivable(atom)) continue;
      const std::string rel = schema.relation(atom.rel).name;
      bool written = false;
      for (std::size_t id = 0; id < view.st + view.tgd && !written; ++id) {
        if (!live[id]) continue;
        for (const Atom& head : view.tgd_of(id).head.atoms) {
          if (head.rel == atom.rel) written = true;
        }
      }
      if (!written) {
        return "body reads relation '" + rel +
               "', which no live rule head ever writes";
      }
      return "every head writing '" + rel +
             "' clashes with the body atom on a constant";
    }
    return "";
  };
  for (std::size_t id = view.st; id < n; ++id) {
    if (live[id]) continue;
    schedule.rules[id].live = false;
    schedule.rules[id].skip_reason = dead_reason(view.target_body(id));
  }

  // ---- effect-free egds -------------------------------------------------
  //
  // A variable whose value is pinned — some occurrence position is only
  // ever written with one single constant — can never be anything else.
  // When both sides of an egd are pinned to the SAME constant, every
  // firing equates c = c: no merge, no failure, provably zero egd steps.
  // (Pinned to two DIFFERENT constants is the opposite: every firing
  // fails. That egd stays live — skipping it would hide the failure.)
  const auto pinned_constant = [&](const Egd& egd,
                                   VarId x) -> std::optional<Value> {
    for (const Atom& atom : egd.body.atoms) {
      for (std::size_t k = 0; k < atom.terms.size(); ++k) {
        const Term& t = atom.terms[k];
        if (!t.is_var() || t.var() != x) continue;
        bool top = false;
        bool nulls = false;
        bool any_feeder = false;
        std::set<Value> constants;
        for (std::size_t id = 0; id < view.st + view.tgd; ++id) {
          if (!live[id]) continue;
          for (const Atom& head : view.tgd_of(id).head.atoms) {
            if (!AtomsCompatible(head, atom) || k >= head.terms.size()) {
              continue;
            }
            any_feeder = true;
            const Term& ht = head.terms[k];
            if (!ht.is_var()) {
              constants.insert(ht.value());
            } else if (existential[id].count(ht.var()) != 0) {
              nulls = true;
            } else {
              top = true;
            }
          }
        }
        if (any_feeder && !top && !nulls && constants.size() == 1) {
          return *constants.begin();
        }
      }
    }
    return std::nullopt;
  };
  for (std::size_t id = view.st + view.tgd; id < n; ++id) {
    if (!live[id]) continue;
    const Egd& egd = view.egd_of(id);
    const std::optional<Value> left = pinned_constant(egd, egd.x1);
    const std::optional<Value> right = pinned_constant(egd, egd.x2);
    if (left.has_value() && right.has_value() && *left == *right) {
      schedule.rules[id].effect_free = true;
      schedule.rules[id].skip_reason =
          "both sides of the equality are always the same constant; no "
          "firing can merge or fail";
    }
  }

  // ---- "feeds" edges ----------------------------------------------------
  const auto fires = [&](std::size_t id) {
    return live[id] && !schedule.rules[id].effect_free;
  };
  std::map<std::pair<std::size_t, std::size_t>, std::string> feed_edges;
  for (std::size_t from = 0; from < view.st + view.tgd; ++from) {
    if (!fires(from)) continue;
    for (std::size_t to = view.st; to < n; ++to) {
      const Conjunction& body = view.target_body(to);
      for (const Atom& head : view.tgd_of(from).head.atoms) {
        bool found = false;
        for (const Atom& atom : body.atoms) {
          if (AtomsCompatible(head, atom)) {
            feed_edges.emplace(std::make_pair(from, to),
                               schema.relation(head.rel).name);
            found = true;
            break;
          }
        }
        if (found) break;
      }
    }
  }

  // ---- "interferes" edges ----------------------------------------------
  //
  // Which (relation, position) slots may ever hold a null: existential
  // head terms seed the set; a universal head variable of a TARGET tgd
  // inherits may-null from the body positions it reads (s-t tgd universals
  // are bound from the null-free source). An egd can only rewrite facts
  // when a merged side may be a null, and a side may only be a null when
  // every occurrence position may hold one.
  std::set<std::pair<RelationId, std::size_t>> may_null;
  changed = true;
  while (changed) {
    changed = false;
    for (std::size_t id = 0; id < view.st + view.tgd; ++id) {
      if (!live[id]) continue;
      const Tgd& tgd = view.tgd_of(id);
      for (const Atom& head : tgd.head.atoms) {
        for (std::size_t k = 0; k < head.terms.size(); ++k) {
          const Term& t = head.terms[k];
          if (!t.is_var()) continue;
          bool nullable = existential[id].count(t.var()) != 0;
          if (!nullable && view.is_target(id)) {
            for (const Atom& body : tgd.body.atoms) {
              for (std::size_t j = 0; j < body.terms.size(); ++j) {
                if (body.terms[j].is_var() && body.terms[j].var() == t.var() &&
                    may_null.count({body.rel, j}) != 0) {
                  nullable = true;
                }
              }
            }
          }
          if (nullable && may_null.insert({head.rel, k}).second) {
            changed = true;
          }
        }
      }
    }
  }
  const auto may_bind_null = [&](const Egd& egd, VarId x) {
    bool occurs = false;
    for (const Atom& atom : egd.body.atoms) {
      for (std::size_t k = 0; k < atom.terms.size(); ++k) {
        const Term& t = atom.terms[k];
        if (!t.is_var() || t.var() != x) continue;
        occurs = true;
        if (may_null.count({atom.rel, k}) == 0) return false;
      }
    }
    return occurs;
  };
  std::map<std::pair<std::size_t, std::size_t>, std::string> clash_edges;
  for (std::size_t from = view.st + view.tgd; from < n; ++from) {
    if (!fires(from)) continue;
    const Egd& egd = view.egd_of(from);
    if (!may_bind_null(egd, egd.x1) && !may_bind_null(egd, egd.x2)) {
      continue;  // never merges: any violating firing fails the chase
    }
    for (std::size_t to = view.st; to < n; ++to) {
      if (!live[to]) continue;
      for (const Atom& atom : view.target_body(to).atoms) {
        bool nullable_rel = false;
        for (std::size_t k = 0; k < atom.terms.size(); ++k) {
          if (may_null.count({atom.rel, k}) != 0) nullable_rel = true;
        }
        if (nullable_rel) {
          clash_edges.emplace(std::make_pair(from, to),
                              schema.relation(atom.rel).name);
          break;
        }
      }
    }
  }

  std::vector<std::vector<std::size_t>> adj(n);
  for (const auto& [key, rel] : feed_edges) {
    schedule.edges.push_back(
        {key.first, key.second, ScheduleEdgeReason::kFeeds, rel});
    adj[key.first].push_back(key.second);
  }
  for (const auto& [key, rel] : clash_edges) {
    schedule.edges.push_back(
        {key.first, key.second, ScheduleEdgeReason::kInterferes, rel});
    adj[key.first].push_back(key.second);
  }
  for (std::vector<std::size_t>& out : adj) std::sort(out.begin(), out.end());

  // ---- SCC condensation into strata (iterative Tarjan, like -------------
  // PrecedenceComponents: fuzzed mappings must not overflow the stack).
  std::vector<std::size_t> index(n, SIZE_MAX), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> stack;
  std::vector<std::vector<std::size_t>> components;
  std::size_t next_index = 0;
  struct Frame {
    std::size_t v;
    std::size_t edge = 0;
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != SIZE_MAX) continue;
    std::vector<Frame> frames{Frame{root}};
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.edge == 0) {
        index[f.v] = low[f.v] = next_index++;
        stack.push_back(f.v);
        on_stack[f.v] = true;
      }
      bool descended = false;
      while (f.edge < adj[f.v].size()) {
        const std::size_t w = adj[f.v][f.edge++];
        if (index[w] == SIZE_MAX) {
          frames.push_back(Frame{w});
          descended = true;
          break;
        }
        if (on_stack[w]) low[f.v] = std::min(low[f.v], index[w]);
      }
      if (descended) continue;
      if (low[f.v] == index[f.v]) {
        std::vector<std::size_t> component;
        while (true) {
          const std::size_t w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          component.push_back(w);
          if (w == f.v) break;
        }
        std::sort(component.begin(), component.end());
        components.push_back(std::move(component));
      }
      const std::size_t finished = f.v;
      frames.pop_back();
      if (!frames.empty()) {
        low[frames.back().v] = std::min(low[frames.back().v], low[finished]);
      }
    }
  }
  // Tarjan emits SCCs sinks-first; reversing yields topological order.
  std::reverse(components.begin(), components.end());
  schedule.strata = std::move(components);
  for (std::size_t s = 0; s < schedule.strata.size(); ++s) {
    for (std::size_t id : schedule.strata[s]) {
      schedule.rules[id].stratum = s;
    }
  }

  // ---- live rule lists ---------------------------------------------------
  for (std::size_t id = view.st; id < view.st + view.tgd; ++id) {
    if (live[id]) schedule.live_target_tgds.push_back(id - view.st);
  }
  for (std::size_t id = view.st + view.tgd; id < n; ++id) {
    if (fires(id)) schedule.live_egds.push_back(id - view.st - view.tgd);
  }

  // ---- diagnostics raw material -----------------------------------------
  for (const auto& [key, rel] : clash_edges) {
    (void)rel;
    if (view.is_target(key.second)) {
      details.interference.emplace_back(view.mapping_index(key.first),
                                        view.mapping_index(key.second));
    }
  }
  for (const std::vector<std::size_t>& stratum : schedule.strata) {
    if (stratum.size() >= 2) details.cycles.push_back(stratum);
  }
  std::set<std::size_t> inverted;
  for (const auto& [key, rel] : feed_edges) {
    (void)rel;
    const auto [from, to] = key;
    if (!view.is_target(from) || !view.is_target(to)) continue;
    if (!live[from] || !live[to]) continue;
    if (schedule.rules[from].stratum == schedule.rules[to].stratum) continue;
    if (view.mapping_index(from) > view.mapping_index(to)) {
      inverted.insert(view.mapping_index(to));
    }
  }
  details.declaration_inversions.assign(inverted.begin(), inverted.end());

  std::vector<bool> written(schema.relation_count(), false);
  std::vector<bool> read(schema.relation_count(), false);
  for (std::size_t id = 0; id < view.st + view.tgd; ++id) {
    if (!live[id]) continue;
    for (const Atom& head : view.tgd_of(id).head.atoms) {
      if (head.rel < written.size()) written[head.rel] = true;
    }
  }
  for (std::size_t id = view.st; id < n; ++id) {
    for (const Atom& atom : view.target_body(id).atoms) {
      if (atom.rel < read.size()) read[atom.rel] = true;
    }
  }
  for (RelationId rel = 0; rel < schema.relation_count(); ++rel) {
    if (written[rel] && !read[rel]) details.written_never_read.push_back(rel);
  }

  details.downstream_relations.resize(n);
  for (std::size_t id = 0; id < n; ++id) {
    std::vector<bool> seen(n, false);
    std::vector<std::size_t> queue{id};
    seen[id] = true;
    std::set<RelationId> rels;
    while (!queue.empty()) {
      const std::size_t v = queue.back();
      queue.pop_back();
      if (v < view.st + view.tgd && fires(v)) {
        for (const Atom& head : view.tgd_of(v).head.atoms) {
          rels.insert(head.rel);
        }
      }
      for (std::size_t w : adj[v]) {
        if (!seen[w]) {
          seen[w] = true;
          queue.push_back(w);
        }
      }
    }
    details.downstream_relations[id].assign(rels.begin(), rels.end());
  }

  strata_metric.Set(schedule.stratum_count());
  return details;
}

ChaseSchedule PlanChase(const Mapping& mapping, const Schema& schema) {
  return PlanChaseDetailed(mapping, schema).schedule;
}

ChaseSchedule ScheduleFor(const Mapping& mapping, const Schema& schema) {
  return mapping.schedule.has_value() ? *mapping.schedule
                                      : PlanChase(mapping, schema);
}

}  // namespace tdx
