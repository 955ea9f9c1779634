#include "src/relational/chase.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/obs/trace.h"
#include "src/relational/chase_run.h"

namespace tdx {

namespace {

/// Universally quantified variables that occur in the head. Two triggers
/// that agree on these produce interchangeable head images, so they are
/// deduplicated before firing.
std::vector<VarId> HeadUniversalVars(const Tgd& tgd) {
  std::unordered_set<VarId> existential(tgd.existential.begin(),
                                        tgd.existential.end());
  std::unordered_set<VarId> seen;
  std::vector<VarId> out;
  for (const Atom& atom : tgd.head.atoms) {
    for (const Term& t : atom.terms) {
      if (t.is_var() && existential.count(t.var()) == 0 &&
          seen.insert(t.var()).second) {
        out.push_back(t.var());
      }
    }
  }
  return out;
}

/// The body variables of `tgd` outside `key`, in order of first occurrence.
std::vector<VarId> BodyVarsOutside(const Tgd& tgd,
                                   const std::vector<VarId>& key) {
  std::vector<char> taken(tgd.num_vars(), 0);
  for (VarId v : key) taken[v] = 1;
  std::vector<VarId> out;
  for (const Atom& atom : tgd.body.atoms) {
    for (const Term& t : atom.terms) {
      if (t.is_var() && taken[t.var()] == 0) {
        taken[t.var()] = 1;
        out.push_back(t.var());
      }
    }
  }
  return out;
}

/// Calls `on_match` with each homomorphism from `conj` (over `num_vars`
/// variables) into `inst` whose image touches `frontier`; with all of them
/// while it is full. Otherwise a cursor is seeded on each atom's frontier
/// range and on each rewritten frontier row, so a homomorphism touching
/// several frontier facts is found once per touched atom and seed. Every
/// cursor extends one empty binding in place, and restores it on closing.
template <class OnMatch>
void ForEachTouching(HomomorphismFinder* finder, const Instance& inst,
                     const Conjunction& conj, std::size_t num_vars,
                     const DeltaFrontier& frontier, OnMatch&& on_match) {
  Binding empty(num_vars);
  if (frontier.full()) {
    HomomorphismFinder::Cursor cursor = finder->Open(conj, &empty);
    while (cursor.Next()) on_match(cursor.binding());
    return;
  }
  const auto seeded = [&](std::size_t atom, std::uint32_t begin,
                          std::uint32_t end) {
    HomomorphismFinder::Cursor cursor =
        finder->OpenSeeded(conj, atom, begin, end, &empty);
    while (cursor.Next()) on_match(cursor.binding());
  };
  for (std::size_t i = 0; i < conj.atoms.size(); ++i) {
    const RelationId rel = conj.atoms[i].rel;
    const std::uint32_t begin = frontier.mark(rel);
    const auto end = static_cast<std::uint32_t>(inst.facts(rel).size());
    if (begin < end) seeded(i, begin, end);
  }
  for (const FactRef& row : frontier.rows()) {
    for (std::size_t i = 0; i < conj.atoms.size(); ++i) {
      if (conj.atoms[i].rel == row.rel) seeded(i, row.pos, row.pos + 1);
    }
  }
}

/// Collects the triggers of `tgd` over `inst` whose body image touches
/// `frontier` (ForEachTouching) into `batch`, then canonicalizes it: the
/// duplicates a key absorbs, and those of a trigger found from several
/// seeds, drop out there. The batch copies the values, and collection
/// completes before any firing, so `inst` may alias the insertion target.
void CollectTriggers(HomomorphismFinder* finder, const Instance& inst,
                     const Tgd& tgd, const std::vector<VarId>& key_vars,
                     const std::vector<VarId>& body_vars,
                     const DeltaFrontier& frontier, ChaseStats* stats,
                     TriggerBatch* batch) {
  batch->Clear(key_vars.size(), key_vars.size() + body_vars.size());
  ForEachTouching(finder, inst, tgd.body, tgd.num_vars(), frontier,
                  [&](const Binding& binding) {
                    ++stats->tgd_triggers;
                    batch->Append(binding, key_vars, body_vars);
                  });
  batch->Canonicalize();
}

/// Fires every canonical trigger in `batch` that lacks an extension
/// witness in the current target (restricted chase). Each row re-binds one
/// reused binding; the existentials are bound in place for the head and
/// unbound after it. `head_finder` enumerates over the live target: its
/// index cache absorbs the inserts this loop performs, so a witness fired
/// moments ago is visible to the next Exists probe. Returns true if at
/// least one new fact was inserted.
bool FireTriggers(Instance* target, const Tgd& tgd,
                  const std::vector<VarId>& key_vars,
                  const std::vector<VarId>& body_vars,
                  const TriggerBatch& batch, const FreshNullFactory& fresh,
                  ChaseStats* stats, ResourceGuard* guard,
                  HomomorphismFinder* head_finder) {
  bool inserted_any = false;
  Binding binding(tgd.num_vars());
  std::vector<Value> row;  // reused head-instantiation scratch
  for (const std::uint32_t r : batch.order()) {
    if (!guard->CheckDeadline()) break;
    const Value* values = batch.row(r);
    for (VarId v : key_vars) binding.Bind(v, *values++);
    for (VarId v : body_vars) binding.Bind(v, *values++);
    // In-place witness check: the binding is extended during the search and
    // fully restored before Exists returns.
    if (head_finder->Exists(tgd.head, &binding)) continue;
    // Budget checks come before the corresponding work, so an aborted
    // firing never half-materializes: no nulls are minted and no facts
    // inserted once the guard trips.
    if (!guard->AdmitTgdFires(stats->tgd_fires + 1)) break;
    for (VarId y : tgd.existential) {
      if (!guard->AdmitFreshNulls(stats->fresh_nulls + 1)) break;
      binding.Bind(y, fresh(tgd, binding));
      ++stats->fresh_nulls;
    }
    if (guard->tripped()) break;
    for (const Atom& atom : tgd.head.atoms) {
      row.clear();
      for (const Term& t : atom.terms) {
        row.push_back(t.is_var() ? binding.Get(t.var()) : t.value());
      }
      if (target->InsertSpan(atom.rel, row.data(), row.size())) {
        inserted_any = true;
        // Duplicates are free: only facts that grew the instance count.
        if (!guard->AdmitFacts(++stats->facts_inserted)) break;
      }
    }
    ++stats->tgd_fires;
    if (guard->tripped()) break;
    for (VarId y : tgd.existential) binding.Unbind(y);
  }
  return inserted_any;
}

}  // namespace

void TriggerBatch::Append(const Binding& binding,
                          const std::vector<VarId>& key_vars,
                          const std::vector<VarId>& body_vars) {
  for (VarId v : key_vars) values_.push_back(binding.Get(v));
  for (VarId v : body_vars) values_.push_back(binding.Get(v));
  ++rows_;
}

void TriggerBatch::Canonicalize() {
  // Three-way key comparison in Value's canonical order.
  const auto compare = [this](std::uint32_t a, std::uint32_t b) {
    const Value* ka = row(a);
    const Value* kb = row(b);
    for (std::size_t k = 0; k < key_width_; ++k) {
      if (ka[k] < kb[k]) return -1;
      if (kb[k] < ka[k]) return 1;
    }
    return 0;
  };
  order_.resize(rows_);
  std::iota(order_.begin(), order_.end(), 0);
  // Ties keep collection order, so the first collected row of each key
  // leads its run.
  std::sort(order_.begin(), order_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const int c = compare(a, b);
              return c != 0 ? c < 0 : a < b;
            });
  const auto last = std::unique(
      order_.begin(), order_.end(),
      [&](std::uint32_t a, std::uint32_t b) { return compare(a, b) == 0; });
  order_.erase(last, order_.end());
}

void DeltaFrontier::AdvancePast(const Instance& facts) {
  std::vector<std::uint32_t> sizes(facts.schema().relation_count());
  for (RelationId rel = 0; rel < sizes.size(); ++rel) {
    sizes[rel] = static_cast<std::uint32_t>(facts.facts(rel).size());
  }
  AdvanceTo(std::move(sizes));
}

void DeltaFrontier::AddRows(const std::vector<FactRef>& rows) {
  if (full_) return;
  const std::size_t mid = rows_.size();
  for (const FactRef& row : rows) {
    if (row.pos < mark(row.rel)) rows_.push_back(row);
  }
  std::inplace_merge(rows_.begin(), rows_.begin() + mid, rows_.end());
  rows_.erase(std::unique(rows_.begin(), rows_.end()), rows_.end());
}

TgdRunPlan BuildTgdRunPlan(const std::vector<Tgd>& tgds,
                           const ChaseSchedule* schedule) {
  TgdRunPlan plan;
  plan.tgds = &tgds;
  plan.key_vars.reserve(tgds.size());
  plan.body_vars.reserve(tgds.size());
  for (const Tgd& tgd : tgds) {
    plan.key_vars.push_back(HeadUniversalVars(tgd));
    plan.body_vars.push_back(BodyVarsOutside(tgd, plan.key_vars.back()));
  }
  if (schedule != nullptr) {
    plan.live = schedule->live_target_tgds;
  } else {
    plan.live.resize(tgds.size());
    std::iota(plan.live.begin(), plan.live.end(), 0);
  }
  return plan;
}

bool RunTgds(const Instance& collect_from, Instance* target,
             const TgdRunPlan& plan, DeltaFrontier* frontier,
             const FreshNullFactory& fresh, ChaseStats* stats,
             ResourceGuard* guard, HomomorphismFinder* collect_finder,
             HomomorphismFinder* fire_finder, TriggerBatch* batch) {
  const std::vector<Tgd>& tgds = *plan.tgds;
  // Everything inserted from here on is the next round's frontier. Sizes
  // are captured before any firing; facts a tgd inserts this round are
  // enumerated by later rules' collections (they are past the current
  // marks) AND again next round — redundant but harmless, the witness check
  // skips re-fires.
  const std::size_t relation_count = collect_from.schema().relation_count();
  std::vector<std::uint32_t> start_sizes(relation_count);
  for (RelationId rel = 0; rel < relation_count; ++rel) {
    start_sizes[rel] =
        static_cast<std::uint32_t>(collect_from.facts(rel).size());
  }
  bool inserted = false;
  for (const std::size_t i : plan.live) {
    if (guard->tripped()) break;
    std::optional<HomomorphismFinder> own;
    HomomorphismFinder* collect_with = collect_finder;
    HomomorphismFinder* fire_with = fire_finder;
    if (collect_finder == nullptr) {
      own.emplace(*target, &stats->search);
      collect_with = fire_with = &*own;
    }
    {
      obs::TraceSpan span("tgd.collect");
      span.SetArg("rule", i);
      CollectTriggers(collect_with, collect_from, tgds[i], plan.key_vars[i],
                      plan.body_vars[i], *frontier, stats, batch);
    }
    obs::TraceSpan span("tgd.fire");
    span.SetArg("rule", i);
    if (FireTriggers(target, tgds[i], plan.key_vars[i], plan.body_vars[i],
                     *batch, fresh, stats, guard, fire_with)) {
      inserted = true;
    }
  }
  frontier->AdvanceTo(std::move(start_sizes));
  return inserted;
}

ChaseResultKind EgdFixpoint(Instance* target, const std::vector<Egd>& egds,
                            ChaseStats* stats, std::string* failure_reason,
                            ResourceGuard* guard, EgdRewrites* rewrites,
                            const DeltaFrontier* since,
                            HomomorphismFinder* finder) {
  // Batched passes: collect every violated equality, merge the equivalence
  // classes with union-find, substitute, repeat. This is equivalent to
  // applying egd steps one at a time (the egd chase is confluent up to null
  // renaming) but costs one substitution pass per batch instead of one per
  // step.
  //
  // The substitution itself is in-place over only the facts that mention a
  // merged value. Those facts are found through a reverse null->positions
  // index built on the first merging pass and maintained incrementally
  // afterwards; it is dropped (and lazily rebuilt) whenever fact positions
  // shift. Only nulls need indexing: a merge never replaces a constant (a
  // non-null representative always wins, and two non-nulls fail the chase).
  //
  // Each pass enumerates only the homomorphisms that touch `seeds`: every
  // one on the first pass unless the caller vouches, through `since`, that
  // every egd holds over the facts outside it; afterwards the rows the
  // previous pass rewrote in place. A homomorphism outside them was
  // satisfied before and its facts did not change, and one a pass found
  // violated has a fact holding a merged-away value, which that pass
  // rewrote. So each pass collects exactly the violations a full
  // enumeration would. A pass that moved positions starts over in full.
  DeltaFrontier seeds = since != nullptr ? *since : DeltaFrontier();
  std::unordered_map<Value, std::vector<FactRef>, ValueHash> reverse;
  bool reverse_valid = false;
  if (rewrites != nullptr) *rewrites = EgdRewrites();
  const auto report_moved = [&]() {
    if (rewrites == nullptr) return;
    rewrites->positions_moved = true;
    rewrites->rows.clear();
  };
  while (true) {
    if (!guard->PokeFault("chase/egd-fixpoint") || !guard->CheckDeadline()) {
      return ChaseResultKind::kAborted;
    }
    // ---- collect all violated equalities --------------------------------
    std::vector<std::pair<Value, Value>> pairs;
    std::string violated_label;
    {
      std::optional<HomomorphismFinder> own;
      HomomorphismFinder* matcher =
          finder != nullptr ? finder : &own.emplace(*target, &stats->search);
      for (const Egd& egd : egds) {
        ForEachTouching(matcher, *target, egd.body, egd.num_vars(), seeds,
                        [&](const Binding& binding) {
                          const Value& a = binding.Get(egd.x1);
                          const Value& b = binding.Get(egd.x2);
                          if (a != b) {
                            pairs.emplace_back(a, b);
                            if (violated_label.empty()) {
                              violated_label = egd.label;
                            }
                          }
                        });
      }
    }
    if (pairs.empty()) return ChaseResultKind::kSuccess;

    // ---- union-find over the values involved -----------------------------
    std::unordered_map<Value, std::size_t, ValueHash> index;
    std::vector<Value> values;
    std::vector<std::size_t> parent;
    auto intern = [&](const Value& v) {
      auto [it, inserted] = index.emplace(v, values.size());
      if (inserted) {
        values.push_back(v);
        parent.push_back(parent.size());
      }
      return it->second;
    };
    const auto find = [&](std::size_t x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    for (const auto& [a, b] : pairs) {
      parent[find(intern(a))] = find(intern(b));
    }

    // ---- pick a representative per class ---------------------------------
    // A non-null wins; two distinct non-nulls in one class is chase
    // failure; among nulls, the smallest id wins (deterministic).
    std::unordered_map<std::size_t, Value> representative;
    for (std::size_t i = 0; i < values.size(); ++i) {
      const std::size_t root = find(i);
      const Value& v = values[i];
      auto it = representative.find(root);
      if (it == representative.end()) {
        representative.emplace(root, v);
        continue;
      }
      const Value& cur = it->second;
      if (!v.is_any_null()) {
        if (!cur.is_any_null()) {
          *failure_reason = "egd '" + violated_label +
                            "' equates two distinct non-null values";
          return ChaseResultKind::kFailure;
        }
        it->second = v;
      } else if (cur.is_any_null() && v.null_id() < cur.null_id()) {
        it->second = v;
      }
    }

    // ---- flatten the classes into a substitution map ---------------------
    std::unordered_map<Value, Value, ValueHash> subst;
    for (std::size_t i = 0; i < values.size(); ++i) {
      const Value& rep = representative.at(find(i));
      if (rep != values[i]) subst.emplace(values[i], rep);
    }

    // The pass's steps are admitted before the substitution: a pass that
    // blows the egd budget aborts without paying for the rewrite.
    const std::size_t steps = index.size() - representative.size();
    if (!guard->AdmitEgdSteps(stats->egd_steps + steps)) {
      return ChaseResultKind::kAborted;
    }
    stats->egd_steps += steps;

    // ---- find the affected facts through the reverse index ---------------
    if (!reverse_valid) {
      reverse.clear();
      const std::size_t relation_count = target->schema().relation_count();
      for (RelationId rel = 0; rel < relation_count; ++rel) {
        const FactColumn facts = target->facts(rel);
        for (std::uint32_t pos = 0; pos < facts.size(); ++pos) {
          for (const Value& v : facts[pos].args()) {
            if (v.is_any_null()) reverse[v].push_back({rel, pos});
          }
        }
      }
      reverse_valid = true;
    }
    std::vector<FactRef> affected;
    for (const auto& [from, to] : subst) {
      (void)to;
      auto it = reverse.find(from);
      if (it == reverse.end()) continue;
      affected.insert(affected.end(), it->second.begin(), it->second.end());
    }
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()),
                   affected.end());

    if (affected.size() > target->size() / 2) {
      // ---- heavy merge: rebuild the instance wholesale -------------------
      Instance next(&target->schema());
      std::vector<Value> args;
      target->ForEach([&](FactView fact) {
        args.clear();
        for (const Value& v : fact.args()) {
          auto it = subst.find(v);
          if (it == subst.end()) {
            args.push_back(v);
            continue;
          }
          ++stats->values_rewritten;
          args.push_back(it->second);
        }
        next.InsertSpan(fact.relation(), args.data(), args.size());
      });
      *target = std::move(next);
      reverse_valid = false;
      report_moved();
      seeds.Reset();
    } else {
      // ---- light merge: rewrite only the affected facts in place ---------
      const RewriteResult result = target->RewriteFacts(affected, subst);
      stats->values_rewritten += result.values_rewritten;
      if (result.compacted) {
        // Positions shifted; the reverse index is stale beyond repair.
        reverse_valid = false;
        report_moved();
        seeds.Reset();
      } else {
        seeds.AdvancePast(*target);
        seeds.AddRows(affected);
        if (rewrites != nullptr && !rewrites->positions_moved) {
          std::vector<FactRef>& rows = rewrites->rows;
          const std::size_t mid = rows.size();
          rows.insert(rows.end(), affected.begin(), affected.end());
          std::inplace_merge(rows.begin(), rows.begin() + mid, rows.end());
          rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
        }
        // Maintain the index: the merged nulls are gone everywhere (every
        // occurrence was just rewritten), and each affected fact now holds
        // representative values at the rewritten slots.
        std::unordered_set<Value, ValueHash> null_reps;
        for (const auto& [from, to] : subst) {
          reverse.erase(from);
          if (to.is_any_null()) null_reps.insert(to);
        }
        if (!null_reps.empty()) {
          for (const FactRef& ref : affected) {
            for (const Value& v : target->facts(ref.rel)[ref.pos].args()) {
              if (null_reps.count(v) != 0) reverse[v].push_back(ref);
            }
          }
        }
      }
    }
  }
}

Result<ChaseOutcome> ChaseSnapshot(const Instance& source,
                                   const Mapping& mapping, Universe* universe,
                                   const ChaseOptions& options) {
  TDX_TRACE_SPAN("snapshot.run");
  ChaseOutcome outcome(Instance(&source.schema()));
  ChaseRun run(ChaseEngine::kSnapshot, options.limits);
  TDX_RETURN_IF_ERROR(
      run.Begin(mapping, source.schema(), options.scheduled, &outcome.stats));
  ResourceGuard& guard = run.guard;
  const auto aborted = [&]() {
    outcome.kind = ChaseResultKind::kAborted;
    outcome.abort_dimension = guard.dimension();
    outcome.abort_reason = guard.reason();
    return outcome;
  };
  const FreshNullFactory fresh = [universe](const Tgd&, const Binding&) {
    return universe->FreshNull();
  };

  DeltaFrontier frontier;
  std::size_t rounds = 0;
  ChaseRunScope run_metrics(ChaseEngine::kSnapshot, &outcome.stats, &rounds,
                            &outcome.kind);

  if (guard.tripped()) return aborted();
  if (!guard.PokeFault("chase/tgd-phase")) return aborted();
  {
    TDX_TRACE_SPAN("snapshot.st_tgd");
    HomomorphismFinder source_finder(source, &outcome.stats.search);
    HomomorphismFinder target_finder(outcome.target, &outcome.stats.search);
    DeltaFrontier full;
    RunTgds(source, &outcome.target, run.st_plan, &full, fresh,
            &outcome.stats, &guard, &source_finder, &target_finder,
            &run.triggers);
  }
  if (guard.tripped()) return aborted();

  // Interleave target-tgd rounds and egd steps to a joint fixpoint. Weak
  // acyclicity (ValidateMapping) bounds the number of fresh nulls, so this
  // terminates; the round cap is a defensive backstop for unvalidated input.
  //
  // Semi-naive execution keeps ONE finder alive across every round; its
  // indexes absorb inserts incrementally and rebuild after egd rewrites
  // (generation check). The frontier resets whenever the egd fixpoint
  // rewrote anything, since rewritten facts can seed triggers the frontier
  // would otherwise never revisit. Naive rounds reset it every time and
  // index afresh (RunTgds).
  HomomorphismFinder finder(outcome.target, &outcome.stats.search);
  HomomorphismFinder* round_finder = options.semi_naive ? &finder : nullptr;
  const auto run_round = [&]() {
    TDX_TRACE_SPAN("snapshot.tgd_round");
    if (!options.semi_naive) frontier.Reset();
    return RunTgds(outcome.target, &outcome.target, run.target_plan,
                   &frontier, fresh, &outcome.stats, &guard, round_finder,
                   round_finder, &run.triggers);
  };
  while (true) {
    bool fired = false;
    while (run_round()) {
      fired = true;
      if (guard.tripped()) return aborted();
      if (++rounds > 100000) {
        return Status::Internal(
            "target-tgd chase exceeded its iteration budget; are the "
            "target tgds weakly acyclic?");
      }
    }
    if (guard.tripped()) return aborted();
    const std::size_t egd_before = outcome.stats.egd_steps;
    if (run.SkipsEgdFixpoint()) {
      // Every egd is dead or effect-free: the pass would collect nothing
      // and return success without touching the target. Count the skip only
      // when there was a pass to skip at all.
      outcome.kind = ChaseResultKind::kSuccess;
      if (!mapping.egds.empty()) ++outcome.stats.skipped_egd_passes;
    } else {
      TDX_TRACE_SPAN("snapshot.egd_fixpoint");
      outcome.kind = EgdFixpoint(&outcome.target, run.egds, &outcome.stats,
                                 &outcome.failure_reason, &guard);
    }
    if (outcome.kind == ChaseResultKind::kFailure) return outcome;
    if (outcome.kind == ChaseResultKind::kAborted) return aborted();
    if (!fired && outcome.stats.egd_steps == egd_before) break;
    if (outcome.stats.egd_steps != egd_before) frontier.Reset();
    if (++rounds > 100000) {
      return Status::Internal(
          "chase exceeded its iteration budget; are the target tgds weakly "
          "acyclic?");
    }
  }
  return outcome;
}

}  // namespace tdx
