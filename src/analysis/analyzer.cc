#include "src/analysis/analyzer.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/analysis/planner.h"
#include "src/analysis/position_graph.h"
#include "src/analysis/termination.h"
#include "src/parser/parser.h"

namespace tdx {

namespace {

/// Frozen-body nulls reuse the variable id; fresh nulls introduced when
/// firing the implying tgd start here, far above any real variable count.
constexpr NullId kFreshNullBase = 1u << 20;
/// Trigger cap for the TDX015 implication test (fuzz safety).
constexpr std::size_t kMaxImplicationTriggers = 64;

std::string TgdName(const Tgd& tgd, std::size_t index) {
  return tgd.label.empty() ? ("#" + std::to_string(index + 1))
                           : ("'" + tgd.label + "'");
}

std::string EgdName(const Egd& egd, std::size_t index) {
  return egd.label.empty() ? ("#" + std::to_string(index + 1))
                           : ("'" + egd.label + "'");
}

/// Bounds check for one conjunction: relation ids in range, atom arity
/// matching the schema, variable ids under num_vars. Everything downstream
/// (position graphs, frozen instances) assumes this.
bool ConjunctionIsStructural(const Conjunction& conj, const Schema& schema) {
  for (const Atom& atom : conj.atoms) {
    if (atom.rel >= schema.relation_count()) return false;
    if (atom.terms.size() != schema.relation(atom.rel).arity()) return false;
    for (const Term& t : atom.terms) {
      if (t.is_var() && t.var() >= conj.num_vars) return false;
    }
  }
  return true;
}

bool InputIsStructural(const AnalysisInput& in) {
  for (const Tgd& tgd : in.mapping->st_tgds) {
    if (!ConjunctionIsStructural(tgd.body, *in.schema) ||
        !ConjunctionIsStructural(tgd.head, *in.schema)) {
      return false;
    }
  }
  for (const Tgd& tgd : in.mapping->target_tgds) {
    if (!ConjunctionIsStructural(tgd.body, *in.schema) ||
        !ConjunctionIsStructural(tgd.head, *in.schema)) {
      return false;
    }
  }
  for (const Egd& egd : in.mapping->egds) {
    if (!ConjunctionIsStructural(egd.body, *in.schema)) return false;
    if (egd.x1 >= egd.body.num_vars || egd.x2 >= egd.body.num_vars) {
      return false;
    }
  }
  if (in.queries != nullptr) {
    for (const UnionQuery& uq : *in.queries) {
      for (const ConjunctiveQuery& q : uq.disjuncts) {
        if (!ConjunctionIsStructural(q.body, *in.schema)) return false;
        for (VarId v : q.head) {
          if (v >= q.body.num_vars) return false;
        }
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// TDX001 / TDX002 / TDX003: the termination ladder.

void AnalyzeTermination(const AnalysisInput& in, AnalysisReport* report) {
  const Mapping& m = *in.mapping;
  report->certificate = m.certificate.has_value()
                            ? *m.certificate
                            : CertifyTermination(m.target_tgds, *in.schema);
  const TerminationCriterion criterion = report->certificate.criterion;
  if (criterion == TerminationCriterion::kNoTargetTgds ||
      criterion == TerminationCriterion::kRichlyAcyclic) {
    return;
  }
  if (criterion == TerminationCriterion::kWeaklyAcyclic) {
    const PositionGraph rich = PositionGraph::Build(
        m.target_tgds, *in.schema, PositionGraph::Kind::kRich);
    if (const auto cycle = rich.FindSpecialCycle()) {
      const Tgd& tgd = m.target_tgds[cycle->tgd_index];
      report->Add("TDX003", Severity::kNote,
                  "target tgds are weakly but not richly acyclic: the "
                  "extended-graph cycle " +
                      rich.FormatCycle(*in.schema, *cycle) + " through tgd " +
                      TgdName(tgd, cycle->tgd_index) +
                      " means the oblivious chase may not terminate",
                  tgd.span);
    }
    return;
  }
  // Stratified or unknown: the weak graph has a special cycle; name it.
  const PositionGraph weak = PositionGraph::Build(m.target_tgds, *in.schema,
                                                  PositionGraph::Kind::kWeak);
  const auto cycle = weak.FindSpecialCycle();
  SourceSpan span;
  std::string detail = report->certificate.witness;
  std::string culprit;
  if (cycle.has_value()) {
    const Tgd& tgd = m.target_tgds[cycle->tgd_index];
    span = tgd.span;
    detail = weak.FormatCycle(*in.schema, *cycle);
    culprit = " of tgd " + TgdName(tgd, cycle->tgd_index);
  }
  if (criterion == TerminationCriterion::kStratified) {
    report->Add("TDX002", Severity::kWarning,
                "target tgds are not weakly acyclic (cycle " + detail +
                    culprit +
                    "); termination is certified by stratification only",
                span,
                "break the cycle so each rung of the ladder applies, or "
                "keep the precedence strata acyclic");
  } else {
    report->Add("TDX001", Severity::kError,
                "target tgds admit a non-terminating chase: the cycle " +
                    detail + culprit +
                    " passes through a special (existential) edge",
                span,
                "remove an existential variable from the cycle or split "
                "the dependency");
  }
}

// ---------------------------------------------------------------------------
// TDX010: temporal satisfiability of tgd bodies against the source.

/// Pointwise intersection of two disjoint sorted covers.
std::vector<Interval> IntersectCovers(const std::vector<Interval>& a,
                                      const std::vector<Interval>& b) {
  std::vector<Interval> out;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (const auto common = a[i].Intersect(b[j])) out.push_back(*common);
    if (a[i].end() < b[j].end()) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

void AnalyzeSatisfiability(const AnalysisInput& in, AnalysisReport* report) {
  if (in.source == nullptr || in.source->empty()) return;
  const Schema& schema = *in.schema;
  // Time coverage of each snapshot source relation, from its twin's facts.
  std::unordered_map<RelationId, std::vector<Interval>> coverage;
  const auto coverage_of =
      [&](RelationId rel) -> const std::vector<Interval>* {
    auto it = coverage.find(rel);
    if (it != coverage.end()) return &it->second;
    const Result<RelationId> twin = schema.TwinOf(rel);
    if (!twin.ok()) return nullptr;
    std::vector<Interval> ivs;
    for (const FactView f : in.source->facts().facts(*twin)) {
      if (f.has_interval()) ivs.push_back(f.interval());
    }
    return &coverage.emplace(rel, MergeIntervals(std::move(ivs))).first->second;
  };
  for (std::size_t ti = 0; ti < in.mapping->st_tgds.size(); ++ti) {
    const Tgd& tgd = in.mapping->st_tgds[ti];
    std::vector<RelationId> rels;
    for (const Atom& atom : tgd.body.atoms) {
      if (std::find(rels.begin(), rels.end(), atom.rel) == rels.end()) {
        rels.push_back(atom.rel);
      }
    }
    if (rels.size() < 2) continue;
    std::vector<Interval> common;
    bool usable = true;
    for (std::size_t k = 0; k < rels.size() && usable; ++k) {
      const std::vector<Interval>* cov = coverage_of(rels[k]);
      // Unknown twin or a relation with no facts at all: stay silent (no
      // data is not an interval conflict).
      if (cov == nullptr || cov->empty()) {
        usable = false;
        break;
      }
      common = (k == 0) ? *cov : IntersectCovers(common, *cov);
      if (common.empty()) {
        std::string names;
        for (std::size_t r = 0; r < rels.size(); ++r) {
          if (r > 0) names += ", ";
          names += "'" + schema.relation(rels[r]).name + "'";
        }
        report->Add("TDX010", Severity::kWarning,
                    "body of tgd " + TgdName(tgd, ti) +
                        " can never fire: its relations (" + names +
                        ") never hold at a common time point",
                    tgd.span,
                    "check the fact intervals; a conjunction only matches "
                    "within the intersection of its relations' time "
                    "coverage (Def. 10)");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// TDX011: egds that can only ever equate distinct constants.

/// Over-approximation of the values a target position can hold, derived
/// from the tgd heads (the only writers of target relations).
struct PosSet {
  bool top = false;       ///< any value (a universal variable is written)
  bool may_null = false;  ///< an existential variable is written
  std::set<Value> constants;
};

PosSet IntersectPosSets(const PosSet& a, const PosSet& b) {
  if (a.top) return b;
  if (b.top) return a;
  PosSet out;
  out.may_null = a.may_null && b.may_null;
  std::set_intersection(a.constants.begin(), a.constants.end(),
                        b.constants.begin(), b.constants.end(),
                        std::inserter(out.constants, out.constants.begin()));
  return out;
}

void AnalyzeEgdConstants(const AnalysisInput& in, AnalysisReport* report) {
  const Mapping& m = *in.mapping;
  if (m.egds.empty()) return;
  std::map<std::pair<RelationId, std::size_t>, PosSet> written;
  const auto absorb_head = [&written](const Tgd& tgd) {
    const std::unordered_set<VarId> existential(tgd.existential.begin(),
                                                tgd.existential.end());
    for (const Atom& atom : tgd.head.atoms) {
      for (std::size_t i = 0; i < atom.terms.size(); ++i) {
        PosSet& pos = written[{atom.rel, i}];
        const Term& t = atom.terms[i];
        if (!t.is_var()) {
          pos.constants.insert(t.value());
        } else if (existential.count(t.var()) != 0) {
          pos.may_null = true;
        } else {
          pos.top = true;
        }
      }
    }
  };
  for (const Tgd& tgd : m.st_tgds) absorb_head(tgd);
  for (const Tgd& tgd : m.target_tgds) absorb_head(tgd);

  for (std::size_t ei = 0; ei < m.egds.size(); ++ei) {
    const Egd& egd = m.egds[ei];
    const auto candidate = [&](VarId x) {
      PosSet cand;
      cand.top = true;
      for (const Atom& atom : egd.body.atoms) {
        for (std::size_t i = 0; i < atom.terms.size(); ++i) {
          const Term& t = atom.terms[i];
          if (!t.is_var() || t.var() != x) continue;
          auto it = written.find({atom.rel, i});
          cand = IntersectPosSets(cand, it == written.end() ? PosSet{}
                                                            : it->second);
        }
      }
      return cand;
    };
    const PosSet left = candidate(egd.x1);
    const PosSet right = candidate(egd.x2);
    if (left.top || right.top || left.may_null || right.may_null) continue;
    if (left.constants.empty() || right.constants.empty()) continue;
    const PosSet both = IntersectPosSets(left, right);
    if (!both.constants.empty()) continue;
    report->Add("TDX011", Severity::kWarning,
                "egd " + EgdName(egd, ei) +
                    " can only ever equate distinct constants; every firing "
                    "would make the chase fail",
                egd.span,
                "the tgd heads feeding its two sides write disjoint "
                "constant sets");
  }
}

// ---------------------------------------------------------------------------
// TDX012: variables used exactly once.

bool LintableVarName(const Conjunction& conj, VarId v, std::string* name) {
  if (v >= conj.var_names.size()) return false;
  const std::string& n = conj.var_names[v];
  if (n.empty() || n[0] == '_') return false;
  *name = n;
  return true;
}

void CountVars(const Conjunction& conj, std::vector<std::size_t>* counts) {
  for (const Atom& atom : conj.atoms) {
    for (const Term& t : atom.terms) {
      if (t.is_var() && t.var() < counts->size()) ++(*counts)[t.var()];
    }
  }
}

void AnalyzeSingleUseVars(const AnalysisInput& in, AnalysisReport* report) {
  const auto report_single =
      [report](const Conjunction& names, const std::vector<std::size_t>& counts,
               const std::unordered_set<VarId>& skip, const std::string& what,
               const SourceSpan& span) {
        for (VarId v = 0; v < counts.size(); ++v) {
          if (counts[v] != 1 || skip.count(v) != 0) continue;
          std::string name;
          if (!LintableVarName(names, v, &name)) continue;
          report->Add("TDX012", Severity::kNote,
                      "variable '" + name + "' occurs only once in " + what,
                      span, "rename it to '_' if the projection is intended");
        }
      };
  const auto analyze_tgds = [&](const std::vector<Tgd>& tgds,
                                const std::string& kind) {
    for (std::size_t ti = 0; ti < tgds.size(); ++ti) {
      const Tgd& tgd = tgds[ti];
      std::vector<std::size_t> counts(tgd.body.num_vars, 0);
      CountVars(tgd.body, &counts);
      CountVars(tgd.head, &counts);
      const std::unordered_set<VarId> skip(tgd.existential.begin(),
                                           tgd.existential.end());
      report_single(tgd.body, counts, skip, kind + " " + TgdName(tgd, ti),
                    tgd.span);
    }
  };
  analyze_tgds(in.mapping->st_tgds, "tgd");
  analyze_tgds(in.mapping->target_tgds, "target tgd");
  for (std::size_t ei = 0; ei < in.mapping->egds.size(); ++ei) {
    const Egd& egd = in.mapping->egds[ei];
    std::vector<std::size_t> counts(egd.body.num_vars, 0);
    CountVars(egd.body, &counts);
    // The equality is a use of both sides.
    if (egd.x1 < counts.size()) ++counts[egd.x1];
    if (egd.x2 < counts.size()) ++counts[egd.x2];
    report_single(egd.body, counts, {}, "egd " + EgdName(egd, ei), egd.span);
  }
  if (in.queries == nullptr) return;
  for (const UnionQuery& uq : *in.queries) {
    for (const ConjunctiveQuery& q : uq.disjuncts) {
      std::vector<std::size_t> counts(q.body.num_vars, 0);
      CountVars(q.body, &counts);
      for (VarId v : q.head) {
        if (v < counts.size()) ++counts[v];
      }
      report_single(q.body, counts, {}, "query '" + q.name + "'", q.span);
    }
  }
}

// ---------------------------------------------------------------------------
// TDX013: relations never mentioned by any dependency or query.

void AnalyzeDeadRelations(const AnalysisInput& in, AnalysisReport* report) {
  const Schema& schema = *in.schema;
  std::vector<bool> used(schema.relation_count(), false);
  const auto mark = [&used](const Conjunction& conj) {
    for (const Atom& atom : conj.atoms) {
      if (atom.rel < used.size()) used[atom.rel] = true;
    }
  };
  for (const Tgd& tgd : in.mapping->st_tgds) {
    mark(tgd.body);
    mark(tgd.head);
  }
  for (const Tgd& tgd : in.mapping->target_tgds) {
    mark(tgd.body);
    mark(tgd.head);
  }
  for (const Egd& egd : in.mapping->egds) mark(egd.body);
  if (in.queries != nullptr) {
    for (const UnionQuery& uq : *in.queries) {
      for (const ConjunctiveQuery& q : uq.disjuncts) mark(q.body);
    }
  }
  for (RelationId r = 0; r < schema.relation_count(); ++r) {
    const RelationSchema& rel = schema.relation(r);
    if (rel.temporal || used[r]) continue;  // report on the snapshot twin
    // A snapshot relation is alive if its concrete twin is used directly
    // (lifted dependencies and facts live there).
    if (rel.twin.has_value() && used[*rel.twin]) continue;
    SourceSpan span;
    if (in.relation_spans != nullptr && r < in.relation_spans->size()) {
      span = (*in.relation_spans)[r];
    }
    report->Add("TDX013", Severity::kWarning,
                "relation '" + rel.name +
                    "' is never used by any dependency or query",
                span, "delete the declaration or add a dependency over it");
  }
}

// ---------------------------------------------------------------------------
// TDX014 / TDX015: duplicate and implied dependencies.

/// Stable spelling of a non-variable term for canonical comparison.
std::string ValueKey(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kConstant:
      return "c" + std::to_string(v.symbol());
    case ValueKind::kNull:
      return "n" + std::to_string(v.null_id());
    case ValueKind::kAnnotatedNull:
      return "a" + std::to_string(v.null_id()) + "@" +
             std::to_string(v.interval().start()) + ":" +
             std::to_string(v.interval().end());
    case ValueKind::kInterval:
      return "i" + std::to_string(v.interval().start()) + ":" +
             std::to_string(v.interval().end());
  }
  return "?";
}

/// Canonical form of a conjunction under first-occurrence variable
/// renaming; `ren` accumulates the renaming across calls so body and head
/// share one namespace.
std::string CanonConjunction(const Conjunction& conj,
                             std::unordered_map<VarId, std::size_t>* ren) {
  std::string out;
  for (const Atom& atom : conj.atoms) {
    out += "R" + std::to_string(atom.rel) + "(";
    for (const Term& t : atom.terms) {
      if (t.is_var()) {
        const auto [it, unused] = ren->emplace(t.var(), ren->size());
        out += "v" + std::to_string(it->second);
      } else {
        out += ValueKey(t.value());
      }
      out += ",";
    }
    out += ")";
  }
  return out;
}

std::string CanonTgd(const Tgd& tgd) {
  std::unordered_map<VarId, std::size_t> ren;
  std::string out = CanonConjunction(tgd.body, &ren);
  out += "->";
  out += CanonConjunction(tgd.head, &ren);
  return out;
}

std::string CanonEgd(const Egd& egd) {
  std::unordered_map<VarId, std::size_t> ren;
  std::string out = CanonConjunction(egd.body, &ren);
  const std::size_t a = ren.count(egd.x1) ? ren[egd.x1] : ren.size();
  const std::size_t b = ren.count(egd.x2) ? ren[egd.x2] : ren.size() + 1;
  out += "->v" + std::to_string(std::min(a, b)) + "=v" +
         std::to_string(std::max(a, b));
  return out;
}

/// One-step chase implication: does firing `a` on the frozen body of `b`
/// always produce everything `b`'s head demands? Sound — a `true` verdict
/// means `b` is redundant whenever `a` is present.
bool TgdImplies(const Tgd& a, const Tgd& b, const Schema& schema) {
  Instance frozen(&schema);
  for (const Atom& atom : b.body.atoms) {
    std::vector<Value> args;
    args.reserve(atom.terms.size());
    for (const Term& t : atom.terms) {
      args.push_back(t.is_var() ? Value::Null(t.var()) : t.value());
    }
    frozen.Insert(atom.rel, std::move(args));
  }
  std::vector<Binding> triggers;
  {
    HomomorphismFinder finder(frozen);
    Binding binding(a.body.num_vars);
    HomomorphismFinder::Cursor cursor = finder.Open(a.body, &binding);
    while (triggers.size() < kMaxImplicationTriggers && cursor.Next()) {
      triggers.push_back(binding);
    }
  }
  Instance result = frozen;
  NullId fresh = kFreshNullBase;
  for (const Binding& binding : triggers) {
    std::unordered_map<VarId, Value> invented;
    for (VarId v : a.existential) {
      invented.emplace(v, Value::Null(fresh++));
    }
    for (const Atom& atom : a.head.atoms) {
      std::vector<Value> args;
      args.reserve(atom.terms.size());
      for (const Term& t : atom.terms) {
        if (!t.is_var()) {
          args.push_back(t.value());
        } else if (binding.IsBound(t.var())) {
          args.push_back(binding.Get(t.var()));
        } else {
          args.push_back(invented.at(t.var()));
        }
      }
      result.Insert(atom.rel, std::move(args));
    }
  }
  // b's head must embed, with universal variables pinned to their frozen
  // nulls and existentials free.
  const std::unordered_set<VarId> existential(b.existential.begin(),
                                              b.existential.end());
  Binding init(b.head.num_vars);
  for (const Atom& atom : b.head.atoms) {
    for (const Term& t : atom.terms) {
      if (t.is_var() && existential.count(t.var()) == 0) {
        init.Bind(t.var(), Value::Null(t.var()));
      }
    }
  }
  HomomorphismFinder finder(result);
  return finder.Exists(b.head, &init);
}

void AnalyzeRedundancy(const AnalysisInput& in, AnalysisReport* report) {
  const auto analyze_group = [&](const std::vector<Tgd>& tgds,
                                 const std::string& kind) {
    std::vector<std::string> canon(tgds.size());
    for (std::size_t i = 0; i < tgds.size(); ++i) canon[i] = CanonTgd(tgds[i]);
    std::unordered_map<std::string, std::size_t> first;
    std::vector<bool> duplicate(tgds.size(), false);
    for (std::size_t i = 0; i < tgds.size(); ++i) {
      const auto [it, inserted] = first.emplace(canon[i], i);
      if (inserted) continue;
      duplicate[i] = true;
      report->Add("TDX014", Severity::kWarning,
                  kind + " " + TgdName(tgds[i], i) + " duplicates " + kind +
                      " " + TgdName(tgds[it->second], it->second) +
                      " (identical up to variable renaming)",
                  tgds[i].span, "delete one of the two");
    }
    for (std::size_t i = 0; i < tgds.size(); ++i) {
      if (duplicate[i]) continue;
      for (std::size_t j = 0; j < tgds.size(); ++j) {
        if (i == j || duplicate[j] || canon[i] == canon[j]) continue;
        if (!TgdImplies(tgds[j], tgds[i], *in.schema)) continue;
        report->Add("TDX015", Severity::kNote,
                    kind + " " + TgdName(tgds[i], i) + " is implied by " +
                        kind + " " + TgdName(tgds[j], j) +
                        " and can be dropped",
                    tgds[i].span);
        break;
      }
    }
  };
  analyze_group(in.mapping->st_tgds, "tgd");
  analyze_group(in.mapping->target_tgds, "target tgd");
  // Egds: duplicates only (implication between egds is rarely actionable).
  std::unordered_map<std::string, std::size_t> first;
  for (std::size_t i = 0; i < in.mapping->egds.size(); ++i) {
    const Egd& egd = in.mapping->egds[i];
    const auto [it, inserted] = first.emplace(CanonEgd(egd), i);
    if (inserted) continue;
    report->Add("TDX014", Severity::kWarning,
                "egd " + EgdName(egd, i) + " duplicates egd " +
                    EgdName(in.mapping->egds[it->second], it->second) +
                    " (identical up to variable renaming)",
                egd.span, "delete one of the two");
  }
}

// ---------------------------------------------------------------------------
// TDX018-TDX024: the chase planner's rule-dependency diagnostics. One
// PlanChaseDetailed call powers all seven lints — the same graph the
// engines consume as their schedule.

void AnalyzePlanning(const AnalysisInput& in, AnalysisReport* report) {
  const Mapping& m = *in.mapping;
  if (m.st_tgds.empty() && m.target_tgds.empty() && m.egds.empty()) return;
  const PlanDetails details = PlanChaseDetailed(m, *in.schema);
  const ChaseSchedule& schedule = details.schedule;

  const auto rule_span = [&](const ScheduleRule& rule) -> SourceSpan {
    switch (rule.kind) {
      case ScheduleRuleKind::kStTgd:
        return m.st_tgds[rule.index].span;
      case ScheduleRuleKind::kTargetTgd:
        return m.target_tgds[rule.index].span;
      case ScheduleRuleKind::kEgd:
        return m.egds[rule.index].span;
    }
    return {};
  };
  const auto rule_name = [&](const ScheduleRule& rule) -> std::string {
    switch (rule.kind) {
      case ScheduleRuleKind::kStTgd:
        return "tgd " + TgdName(m.st_tgds[rule.index], rule.index);
      case ScheduleRuleKind::kTargetTgd:
        return "target tgd " + TgdName(m.target_tgds[rule.index], rule.index);
      case ScheduleRuleKind::kEgd:
        return "egd " + EgdName(m.egds[rule.index], rule.index);
    }
    return "rule";
  };

  // TDX018/TDX019: rules the engines provably skip. st-tgds are always
  // live, so only target tgds and egds can show up here.
  for (const ScheduleRule& rule : schedule.rules) {
    if (!rule.live) {
      report->Add("TDX018", Severity::kWarning,
                  rule_name(rule) + " can never fire: " + rule.skip_reason,
                  rule_span(rule),
                  "delete it, or fix the heads that should feed it");
    } else if (rule.effect_free) {
      report->Add("TDX019", Severity::kWarning,
                  rule_name(rule) + " is effect-free: " + rule.skip_reason,
                  rule_span(rule), "delete it; it can never merge or fail");
    }
  }

  // TDX020: egd-tgd interference — the merges force the engines to re-seed
  // their semi-naive frontiers after every merging fixpoint.
  for (const auto& [egd_index, tgd_index] : details.interference) {
    report->Add(
        "TDX020", Severity::kNote,
        "egd " + EgdName(m.egds[egd_index], egd_index) +
            " may rewrite nulls in facts that target tgd " +
            TgdName(m.target_tgds[tgd_index], tgd_index) +
            " reads; every merging egd fixpoint re-seeds the chase frontier",
        m.target_tgds[tgd_index].span);
  }

  // TDX021: multi-rule cycles — these rules share one stratum, so no
  // declaration order can topologically sort them.
  for (const std::vector<std::size_t>& cycle : details.cycles) {
    std::string names;
    SourceSpan span;
    for (std::size_t id : cycle) {
      if (!names.empty()) names += ", ";
      names += rule_name(schedule.rules[id]);
      if (!span.valid()) span = rule_span(schedule.rules[id]);
    }
    report->Add("TDX021", Severity::kNote,
                names +
                    " form a dependency cycle and share one chase stratum; "
                    "their joint fixpoint needs repeated rounds",
                span);
  }

  // TDX022: declaration order fights the stratum order.
  for (std::size_t index : details.declaration_inversions) {
    report->Add(
        "TDX022", Severity::kNote,
        "target tgd " + TgdName(m.target_tgds[index], index) +
            " is declared before a rule of an earlier stratum that feeds "
            "it; declaration-order rounds revisit it once per stratum",
        m.target_tgds[index].span,
        "declare rules in stratum order (run 'tdx_cli plan' to see it)");
  }

  // TDX023: written but never read — dead weight in the target. A query
  // read keeps the relation alive; the planner only sees rule bodies.
  std::vector<bool> query_read(in.schema->relation_count(), false);
  if (in.queries != nullptr) {
    for (const UnionQuery& uq : *in.queries) {
      for (const ConjunctiveQuery& q : uq.disjuncts) {
        for (const Atom& atom : q.body.atoms) {
          if (atom.rel < query_read.size()) query_read[atom.rel] = true;
          const Result<RelationId> twin = in.schema->TwinOf(atom.rel);
          if (twin.ok() && *twin < query_read.size()) {
            query_read[*twin] = true;
          }
        }
      }
    }
  }
  const bool has_queries = in.queries != nullptr && !in.queries->empty();
  for (const RelationId rel : details.written_never_read) {
    // Without queries, every terminal target relation is "write-only";
    // the lint is only meaningful when the program says what it reads.
    if (!has_queries) break;
    if (rel < query_read.size() && query_read[rel]) continue;
    // The snapshot twin of a queried concrete relation is read through the
    // lifted program; don't flag it.
    const RelationSchema& relation = in.schema->relation(rel);
    if (relation.twin.has_value() && *relation.twin < query_read.size() &&
        query_read[*relation.twin]) {
      continue;
    }
    SourceSpan span;
    if (in.relation_spans != nullptr && rel < in.relation_spans->size()) {
      span = (*in.relation_spans)[rel];
    }
    report->Add("TDX023", Severity::kNote,
                "relation '" + relation.name +
                    "' is written by the chase but never read by any rule "
                    "body or query",
                span, "query it, feed it into a rule, or drop its writers");
  }

  // TDX024: a target tgd whose entire downstream contribution (its own
  // heads plus everything reachable through feeds edges) is never queried.
  // Meaningful only when the program declares queries at all.
  if (has_queries) {
    const std::size_t st = m.st_tgds.size();
    for (std::size_t index = 0; index < m.target_tgds.size(); ++index) {
      const ScheduleRule& rule = schedule.rules[st + index];
      if (!rule.live) continue;  // already TDX018
      bool queried = false;
      for (const RelationId rel : details.downstream_relations[st + index]) {
        if (rel < query_read.size() && query_read[rel]) {
          queried = true;
          break;
        }
      }
      if (queried) continue;
      report->Add("TDX024", Severity::kNote,
                  "target tgd " + TgdName(m.target_tgds[index], index) +
                      " contributes to no query: nothing it derives, "
                      "directly or downstream, is ever queried",
                  m.target_tgds[index].span,
                  "delete it or add a query over its output");
    }
  }
}

}  // namespace

AnalysisReport Analyze(const AnalysisInput& input) {
  AnalysisReport report;
  assert(input.schema != nullptr && input.mapping != nullptr);
  if (!InputIsStructural(input)) {
    report.Add("TDX000", Severity::kError,
               "mapping is structurally invalid (atom arity or ids out of "
               "range); run it through the parser first");
    return report;
  }
  AnalyzeTermination(input, &report);
  if (input.mapping->st_tgds.empty()) {
    report.Add("TDX017", Severity::kWarning,
               "mapping has no s-t tgds; the target instance is always empty",
               {}, "add at least one 'tgd' statement");
  }
  AnalyzeRedundancy(input, &report);
  AnalyzeEgdConstants(input, &report);
  AnalyzeSingleUseVars(input, &report);
  AnalyzeDeadRelations(input, &report);
  AnalyzeSatisfiability(input, &report);
  AnalyzePlanning(input, &report);
  report.Sort();
  return report;
}

AnalysisReport AnalyzeProgram(const ParsedProgram& program) {
  AnalysisInput input;
  input.schema = &program.schema;
  input.mapping = &program.mapping;
  input.source = &program.source;
  input.queries = &program.queries;
  input.relation_spans = &program.relation_spans;
  return Analyze(input);
}

}  // namespace tdx
