#include "src/relational/chase.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/checkpoint.h"
#include "src/common/thread_pool.h"
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

/// Triggers of one tgd, deduplicated and canonically ordered by the
/// head-visible universal values: triggers agreeing there would fire
/// indistinguishable head images (the fresh-null factories only consult
/// head-visible variables), so the first collected binding represents the
/// key. Collection always completes before any firing, so the enumerated
/// instance may alias the insertion target.
using TriggerSet = std::map<std::vector<Value>, Binding>;

/// Collects the triggers of `tgd` over `inst`. A full frontier enumerates
/// every body homomorphism; otherwise enumeration is seeded on each body
/// atom's frontier range, so only triggers whose image touches at least one
/// frontier fact are found. Triggers touching several frontier facts are
/// enumerated once per touched atom; the key map absorbs the duplicates.
void CollectTriggers(HomomorphismFinder* finder, const Instance& inst,
                     const Tgd& tgd, const std::vector<VarId>& key_vars,
                     const DeltaFrontier& frontier, ChaseStats* stats,
                     TriggerSet* triggers) {
  const HomCallback add = [&](const Binding& binding, const AtomImage&) {
    ++stats->tgd_triggers;
    std::vector<Value> key;
    key.reserve(key_vars.size());
    for (VarId v : key_vars) key.push_back(binding.Get(v));
    triggers->emplace(std::move(key), binding);
    return true;
  };
  if (frontier.full()) {
    finder->ForEach(tgd.body, Binding(tgd.num_vars()), add);
    return;
  }
  for (std::size_t i = 0; i < tgd.body.atoms.size(); ++i) {
    const RelationId rel = tgd.body.atoms[i].rel;
    const std::uint32_t begin = frontier.mark(rel);
    const auto end = static_cast<std::uint32_t>(inst.facts(rel).size());
    if (begin >= end) continue;
    finder->ForEachSeeded(tgd.body, i, begin, end, Binding(tgd.num_vars()),
                          add);
  }
}

/// Fires every collected trigger that lacks an extension witness in the
/// current target (restricted chase). `head_finder` enumerates over the
/// live target: its index cache absorbs the inserts this loop performs, so
/// a witness fired moments ago is visible to the next Exists probe — the
/// behavior the old per-insert finder rebuild bought, at append cost.
/// Returns true if at least one new fact was inserted.
bool FireTriggers(Instance* target, const Tgd& tgd, TriggerSet& triggers,
                  const FreshNullFactory& fresh, ChaseStats* stats,
                  ResourceGuard* guard, HomomorphismFinder* head_finder) {
  bool inserted_any = false;
  std::vector<Value> row;  // reused head-instantiation scratch
  for (auto& [key, binding] : triggers) {
    if (!guard->CheckDeadline()) break;
    // In-place witness check: the binding is extended during the search and
    // fully restored before Exists returns.
    if (head_finder->Exists(tgd.head, &binding)) continue;
    // Budget checks come before the corresponding work, so an aborted
    // firing never half-materializes: no nulls are minted and no facts
    // inserted once the guard trips.
    if (!guard->ChargeTgdFire()) break;
    Binding extended = binding;
    for (VarId y : tgd.existential) {
      if (!guard->ChargeFreshNull()) break;
      extended.Bind(y, fresh(tgd, binding));
      ++stats->fresh_nulls;
    }
    if (guard->tripped()) break;
    bool fact_budget_ok = true;
    for (const Atom& atom : tgd.head.atoms) {
      row.clear();
      for (const Term& t : atom.terms) {
        row.push_back(t.is_var() ? extended.Get(t.var()) : t.value());
      }
      if (target->InsertSpan(atom.rel, row.data(), row.size())) {
        inserted_any = true;
        // Duplicates are free: only facts that grew the instance count.
        if (!guard->ChargeFact()) {
          fact_budget_ok = false;
          break;
        }
      }
    }
    ++stats->tgd_fires;
    if (!fact_budget_ok) break;
  }
  return inserted_any;
}

}  // namespace

TgdRunPlan BuildTgdRunPlan(const std::vector<Tgd>& tgds,
                           const ChaseSchedule* schedule, unsigned jobs) {
  TgdRunPlan plan;
  plan.tgds = &tgds;
  plan.jobs = jobs;
  plan.key_vars.reserve(tgds.size());
  for (const Tgd& tgd : tgds) plan.key_vars.push_back(HeadUniversalVars(tgd));
  if (schedule != nullptr) {
    plan.groups = schedule->parallel_groups;
  } else {
    for (std::size_t i = 0; i < tgds.size(); ++i) plan.groups.push_back({i});
  }
  return plan;
}

bool RunTgds(const Instance& collect_from, Instance* target,
             const TgdRunPlan& plan, DeltaFrontier* frontier,
             const FreshNullFactory& fresh, ChaseStats* stats,
             ResourceGuard* guard, HomomorphismFinder* collect_finder,
             HomomorphismFinder* fire_finder) {
  const std::vector<Tgd>& tgds = *plan.tgds;
  // Everything inserted from here on is the next round's frontier. Sizes
  // are captured before any firing; facts a tgd inserts this round are
  // enumerated by later groups' collections (they are past the current
  // marks) AND again next round — redundant but harmless, the witness check
  // skips re-fires.
  const std::size_t relation_count = collect_from.schema().relation_count();
  std::vector<std::uint32_t> start_sizes(relation_count);
  for (RelationId rel = 0; rel < relation_count; ++rel) {
    start_sizes[rel] =
        static_cast<std::uint32_t>(collect_from.facts(rel).size());
  }
  bool inserted = false;
  for (const std::vector<std::size_t>& group : plan.groups) {
    if (guard->tripped()) break;
    // Collect every member before firing any, concurrently when the plan
    // allows. This matches the flat plan's collect-then-fire per rule: the
    // facts earlier members fire match nothing later members collect
    // (group members cannot feed one another, and fires never land in a
    // source), so the trigger sets (and counts) come out identical.
    std::vector<TriggerSet> sets(group.size());
    std::vector<ChaseStats> local(group.size());
    std::optional<HomomorphismFinder> own;
    HomomorphismFinder* collect_with = collect_finder;
    HomomorphismFinder* fire_with = fire_finder;
    if (collect_finder == nullptr) {
      own.emplace(*target, &stats->search);
      collect_with = fire_with = &*own;
    }
    const auto collect = [&](HomomorphismFinder* finder, std::size_t k) {
      CollectTriggers(finder, collect_from, tgds[group[k]],
                      plan.key_vars[group[k]], *frontier, &local[k], &sets[k]);
    };
    if (plan.jobs > 1 && group.size() > 1) {
      ParallelFor(plan.jobs, group.size(), [&](std::size_t k) {
        HomomorphismFinder scratch(collect_from, &local[k].search);
        collect(&scratch, k);
      });
    } else {
      for (std::size_t k = 0; k < group.size(); ++k) collect(collect_with, k);
    }
    // Trigger counts accrue per member right before its firing, so stats
    // sequences are the same for every grouping, even across guard trips.
    for (std::size_t k = 0; k < group.size(); ++k) {
      if (guard->tripped()) break;
      stats->tgd_triggers += local[k].tgd_triggers;
      stats->search += local[k].search;
      if (FireTriggers(target, tgds[group[k]], sets[k], fresh, stats, guard,
                       fire_with)) {
        inserted = true;
      }
    }
  }
  frontier->AdvanceTo(std::move(start_sizes));
  return inserted;
}

ChaseResultKind EgdFixpoint(Instance* target, const std::vector<Egd>& egds,
                            ChaseStats* stats, std::string* failure_reason,
                            ResourceGuard* guard, EgdRewrites* rewrites) {
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
      HomomorphismFinder finder(*target, &stats->search);
      for (const Egd& egd : egds) {
        finder.ForEach(egd.body, Binding(egd.num_vars()),
                       [&](const Binding& binding, const AtomImage&) {
                         const Value& a = binding.Get(egd.x1);
                         const Value& b = binding.Get(egd.x2);
                         if (a != b) {
                           pairs.emplace_back(a, b);
                           if (violated_label.empty()) {
                             violated_label = egd.label;
                           }
                         }
                         return true;
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
    std::function<std::size_t(std::size_t)> find =
        [&](std::size_t x) -> std::size_t {
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

    // The pass's steps are charged before the substitution: a pass that
    // blows the egd budget aborts without paying for the rewrite.
    if (!guard->ChargeEgdSteps(index.size() - representative.size())) {
      return ChaseResultKind::kAborted;
    }
    stats->egd_steps += index.size() - representative.size();

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
    } else {
      // ---- light merge: rewrite only the affected facts in place ---------
      const RewriteResult result = target->RewriteFacts(affected, subst);
      stats->values_rewritten += result.values_rewritten;
      if (result.compacted) {
        // Positions shifted; the reverse index is stale beyond repair.
        reverse_valid = false;
        report_moved();
      } else {
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

namespace {

Result<ChaseOutcome> ChaseSnapshotImpl(const Instance& source,
                                       const Mapping& mapping,
                                       Universe* universe,
                                       const ChaseOptions& options) {
  TDX_TRACE_SPAN("snapshot.run");
  const ChaseCheckpoint* resume = options.resume_from;
  const std::string config = std::string("engine=snapshot semi-naive=") +
                             (options.semi_naive ? "1" : "0");
  ChaseOutcome outcome(Instance(&source.schema()));
  ChaseRun run(options.limits, resume);
  TDX_RETURN_IF_ERROR(run.Begin(mapping, source.schema(),
                                ChaseCheckpoint::Engine::kSnapshot, config,
                                options.scheduled, options.jobs,
                                &outcome.stats, universe));
  if (resume != nullptr) {
    if (!resume->target.has_value()) {
      return Status::InvalidArgument(
          "snapshot checkpoint is missing its target instance");
    }
    outcome.target = *resume->target;
  }
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
  // Init-phase checkpoints carry rounds == 0, so seeding from the resume
  // point is correct for every phase; the loop-top dispatch below re-assigns
  // the same value.
  std::size_t rounds = resume != nullptr ? resume->rounds : 0;
  bool mid_rounds = false;
  // From here on the stats reflect only this run's work (the resume restore
  // above already happened), so the scope's exit-time deltas attribute
  // resumed work to the run that actually did it.
  ChaseRunScope run_metrics(ChaseCheckpoint::Engine::kSnapshot, &outcome.stats,
                            &rounds, &outcome.kind);
  // Offers a safe point to the checkpointer. Everything captured is the
  // state a fresh run would hold at the same point, so resuming from the
  // checkpoint and re-executing produces bit-identical results.
  const auto offer_checkpoint = [&](bool boundary, const char* phase) {
    if (options.checkpointer == nullptr) return;
    options.checkpointer->AtSafePoint(boundary, [&]() {
      ChaseCheckpoint ck;
      ck.engine = ChaseCheckpoint::Engine::kSnapshot;
      ck.config = config;
      ck.phase = phase;
      ck.rounds = rounds;
      ck.stats = outcome.stats;
      ck.consumed = guard.Consumed();
      CaptureUniverseNulls(*universe, &ck);
      ck.frontier_full = frontier.full();
      ck.frontier_marks = frontier.marks();
      ck.target = outcome.target;
      return ck;
    });
  };

  if (guard.tripped()) return aborted();
  const std::string start_phase = resume != nullptr ? resume->phase : "init";
  if (start_phase == "init") {
    if (resume == nullptr) offer_checkpoint(true, "init");
    if (!guard.PokeFault("chase/tgd-phase")) return aborted();
    {
      TDX_TRACE_SPAN("snapshot.st_tgd");
      HomomorphismFinder source_finder(source, &outcome.stats.search);
      HomomorphismFinder target_finder(outcome.target, &outcome.stats.search);
      DeltaFrontier full;
      RunTgds(source, &outcome.target, run.st_plan, &full, fresh,
              &outcome.stats, &guard, &source_finder, &target_finder);
    }
    if (guard.tripped()) return aborted();
    offer_checkpoint(true, "loop-top");
  } else if (start_phase == "loop-top" || start_phase == "rounds") {
    rounds = resume->rounds;
    if (resume->frontier_full) {
      frontier.Reset();
    } else {
      frontier.AdvanceTo(resume->frontier_marks);
    }
    // A "rounds" checkpoint sits between two fired rounds: the resumed
    // iteration continues the inner loop with the fired flag already set.
    mid_rounds = start_phase == "rounds";
  } else {
    return Status::InvalidArgument("unknown snapshot checkpoint phase '" +
                                   start_phase + "'");
  }

  // Interleave target-tgd rounds and egd steps to a joint fixpoint. Weak
  // acyclicity (ValidateMapping) bounds the number of fresh nulls, so this
  // terminates; the round cap is a defensive backstop for unvalidated input.
  //
  // Semi-naive execution keeps ONE finder alive across every round; its
  // indexes absorb inserts incrementally and rebuild after egd rewrites
  // (generation check). The frontier resets whenever the egd fixpoint
  // rewrote anything, since rewritten facts can seed triggers the frontier
  // would otherwise never revisit. Naive rounds reset it every time and
  // index afresh (RunTgds). The finder is derived state: on resume it is
  // rebuilt fresh over the restored target.
  HomomorphismFinder finder(outcome.target, &outcome.stats.search);
  HomomorphismFinder* round_finder = options.semi_naive ? &finder : nullptr;
  const auto run_round = [&]() {
    TDX_TRACE_SPAN("snapshot.tgd_round");
    if (!options.semi_naive) frontier.Reset();
    return RunTgds(outcome.target, &outcome.target, run.target_plan,
                   &frontier, fresh, &outcome.stats, &guard, round_finder,
                   round_finder);
  };
  while (true) {
    bool fired = mid_rounds;
    mid_rounds = false;
    while (run_round()) {
      fired = true;
      if (guard.tripped()) return aborted();
      if (++rounds > 100000) {
        return Status::Internal(
            "target-tgd chase exceeded its iteration budget; are the "
            "target tgds weakly acyclic?");
      }
      offer_checkpoint(false, "rounds");
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
    offer_checkpoint(true, "loop-top");
  }
  return outcome;
}

}  // namespace

Result<ChaseOutcome> ChaseSnapshot(const Instance& source,
                                   const Mapping& mapping, Universe* universe,
                                   const ChaseOptions& options) {
  return ChaseSnapshotImpl(source, mapping, universe, options);
}

Result<ChaseOutcome> ChaseSnapshot(const Instance& source,
                                   const Mapping& mapping, Universe* universe,
                                   const ChaseLimits& limits) {
  ChaseOptions options;
  options.limits = limits;
  return ChaseSnapshotImpl(source, mapping, universe, options);
}

}  // namespace tdx
