#include "src/core/cchase.h"

#include <string_view>
#include <unordered_map>
#include <utility>

#include "src/common/checkpoint.h"
#include "src/core/normalize_incremental.h"
#include "src/obs/trace.h"
#include "src/relational/chase_run.h"

namespace tdx {

Result<VarId> InferTemporalVar(const Conjunction& conj) {
  std::optional<VarId> t;
  for (const Atom& atom : conj.atoms) {
    if (atom.terms.empty() || !atom.terms.back().is_var()) {
      return Status::InvalidArgument(
          "lifted atom must end in the temporal variable");
    }
    const VarId v = atom.terms.back().var();
    if (t.has_value() && *t != v) {
      return Status::InvalidArgument(
          "atoms of a lifted dependency must share one temporal variable");
    }
    t = v;
  }
  if (!t.has_value()) {
    return Status::InvalidArgument("empty conjunction has no temporal variable");
  }
  return *t;
}

Result<CChaseOutcome> CChase(const ConcreteInstance& source,
                             const Mapping& lifted, Universe* universe,
                             const CChaseOptions& options) {
  TDX_TRACE_SPAN("cchase.run");
  TDX_RETURN_IF_ERROR(source.Validate());
  if (!source.IsComplete()) {
    return Status::InvalidArgument(
        "c-chase requires a complete concrete source instance");
  }

  // Resolve each tgd's temporal variable up front (it annotates the fresh
  // nulls minted when the tgd fires).
  std::unordered_map<const Tgd*, VarId> tgd_temporal;
  auto resolve_temporal = [&](const std::vector<Tgd>& tgds) -> Status {
    for (const Tgd& tgd : tgds) {
      if (tgd.temporal_var.has_value()) {
        tgd_temporal.emplace(&tgd, *tgd.temporal_var);
        continue;
      }
      TDX_ASSIGN_OR_RETURN(VarId t, InferTemporalVar(tgd.body));
      TDX_ASSIGN_OR_RETURN(VarId t_head, InferTemporalVar(tgd.head));
      if (t != t_head) {
        return Status::InvalidArgument(
            "tgd '" + tgd.label +
            "': body and head must share the temporal variable");
      }
      tgd_temporal.emplace(&tgd, t);
    }
    return Status::OK();
  };
  TDX_RETURN_IF_ERROR(resolve_temporal(lifted.st_tgds));
  TDX_RETURN_IF_ERROR(resolve_temporal(lifted.target_tgds));

  // Checkpoint/resume plumbing. The config fingerprint covers every option
  // that alters the execution trajectory; resource limits are deliberately
  // excluded (raising the budget on resume is the intended recovery path).
  const ChaseCheckpoint* resume = options.resume_from;
  std::string config = "engine=cchase semi-naive=";
  config += options.semi_naive ? '1' : '0';
  config += " naive-normalizer=";
  config += options.use_naive_normalizer ? '1' : '0';
  config += " coalesce=";
  config += options.coalesce_result ? '1' : '0';
  CChaseOutcome outcome(ConcreteInstance(&source.schema()),
                        ConcreteInstance(&source.schema()));
  const std::string start_phase =
      resume != nullptr ? resume->phase : std::string("init");
  if (resume != nullptr) {
    if (resume->config != config) {
      return Status::InvalidArgument(
          "checkpoint was written under different execution options (\"" +
          resume->config + "\" vs \"" + config + "\")");
    }
    if (start_phase != "init" && start_phase != "st-tgd" &&
        start_phase != "loop-top" && start_phase != "rounds") {
      return Status::InvalidArgument("unknown c-chase checkpoint phase '" +
                                     start_phase + "'");
    }
    if (start_phase != "init" && !resume->normalized_source.has_value()) {
      return Status::InvalidArgument(
          "c-chase checkpoint is missing its normalized source");
    }
    if ((start_phase == "loop-top" || start_phase == "rounds") &&
        !resume->target.has_value()) {
      return Status::InvalidArgument(
          "c-chase checkpoint is missing its target instance");
    }
    outcome.stats = resume->stats;
    outcome.source_norm_stats = resume->source_norm_stats;
    outcome.target_norm_stats = resume->target_norm_stats;
    universe->RestoreNullState(resume->next_null, resume->null_names);
  }
  // One guard governs all four phases; any trip unwinds to here and is
  // reported as kAborted with whatever stats accrued. It admits work
  // against outcome.stats, so a resumed run spends the remaining budget;
  // its deadline starts with the interrupted run's elapsed time.
  ChaseRun run(ChaseEngine::kCChase, options.limits,
               resume != nullptr ? resume->consumed : ResourceLedger{});
  TDX_RETURN_IF_ERROR(
      run.Begin(lifted, source.schema(), options.scheduled, &outcome.stats));
  ResourceGuard& guard = run.guard;
  const auto aborted = [&]() {
    outcome.kind = ChaseResultKind::kAborted;
    outcome.abort_dimension = guard.dimension();
    outcome.abort_reason = guard.reason();
    return outcome;
  };

  // Loop-top/rounds checkpoints carry the resume round count; earlier-phase
  // checkpoints carry 0, so seeding here is correct for every phase (the
  // loop-top dispatch below re-assigns the same value). Seeding before the
  // metrics scope keeps resumed rounds attributed to the run that ran them.
  std::size_t rounds = resume != nullptr ? resume->rounds : 0;
  // The stats above reflect the resume restore, so the scope's exit-time
  // deltas cover only this run's own work.
  ChaseRunScope run_metrics(ChaseEngine::kCChase, &outcome.stats, &rounds,
                            &outcome.kind, &outcome.target_norm_stats);
  DeltaFrontier frontier;
  // The facts an egd could be violated over: those appended since the
  // last egd fixpoint left every egd satisfied (every fact before the
  // first). Reset, like the tgd frontier, when positions move.
  DeltaFrontier egd_frontier;
  // Target-normalization state (declared before the checkpoint lambda so
  // its watermark can be captured at safe points). Its watermark stays
  // invalid at every safe point when the incremental path is off.
  const bool use_incremental =
      !options.use_naive_normalizer && options.incremental_normalize;
  NormalizeState norm_state;
  // The semi-naive round finder, once the target exists (declared below,
  // over the materialized target).
  const HomomorphismFinder* round_finder_view = nullptr;
  // Offers a safe point to the checkpointer: everything captured is the
  // state a fresh run holds at the same point, so resume + re-execution is
  // bit-identical to the uninterrupted run.
  const auto offer_checkpoint = [&](bool boundary, const char* phase,
                                    const Instance* target_now) {
    if (options.checkpointer == nullptr) return;
    options.checkpointer->AtSafePoint(boundary, [&]() {
      ChaseCheckpoint ck;
      ck.config = config;
      ck.phase = phase;
      ck.rounds = rounds;
      ck.stats = outcome.stats;
      ck.consumed = guard.Consumed();
      ck.next_null = universe->null_count();
      ck.null_names.reserve(ck.next_null);
      for (NullId id = 0; id < ck.next_null; ++id) {
        ck.null_names.emplace_back(universe->NullName(id));
      }
      ck.frontier_full = frontier.full();
      ck.frontier_marks = frontier.marks();
      ck.frontier_rows = frontier.rows();
      ck.egd_frontier_full = egd_frontier.full();
      ck.egd_frontier_marks = egd_frontier.marks();
      ck.source_norm_stats = outcome.source_norm_stats;
      ck.target_norm_stats = outcome.target_norm_stats;
      if (std::string_view(phase) != "init") {
        ck.normalized_source = outcome.normalized_source.facts();
      }
      if (target_now != nullptr) {
        ck.target = *target_now;
        // Export succeeds only while the watermark proves the old prefix
        // (bound to this instance, generation current); after a light egd
        // rewrite it carries the rewritten rows as dirty rows.
        if (auto wm = norm_state.Export(target_now)) {
          ck.norm_state_valid = true;
          ck.norm_marks = std::move(wm->marks);
          ck.norm_labels = std::move(wm->labels);
          ck.norm_components = wm->num_components;
          ck.norm_dirty = std::move(wm->dirty);
        }
        // Index caches are derived state, but how warm they are decides
        // how many rows later probes hash (IndexStats::rows_indexed).
        if (round_finder_view != nullptr) {
          ck.round_warmth = round_finder_view->Warmth();
        }
        ck.norm_warmth = norm_state.FinderWarmth(target_now);
      }
      return ck;
    });
  };

  // A budget lowered below what the interrupted run already spent is
  // exhausted before any work, as it would have been in an uninterrupted
  // run.
  if (resume != nullptr) {
    const ChaseStats& spent = outcome.stats;
    (void)(guard.AdmitTgdFires(spent.tgd_fires) &&
           guard.AdmitEgdSteps(spent.egd_steps) &&
           guard.AdmitFreshNulls(spent.fresh_nulls) &&
           guard.AdmitFacts(spent.facts_inserted));
  }
  if (guard.tripped()) return aborted();
  if (start_phase == "init") {
    // A boundary checkpoint before any work, so even a kill inside source
    // normalization has something to resume from.
    if (resume == nullptr) offer_checkpoint(true, "init", nullptr);
    // ---- Step 1: normalize the source w.r.t. lhs(Sigma+st) --------------
    if (!guard.PokeFault("cchase/normalize-source")) return aborted();
    obs::TraceSpan span("cchase.normalize_source");
    outcome.normalized_source =
        options.use_naive_normalizer
            ? NaiveNormalize(source, &outcome.source_norm_stats, &guard)
            : Normalize(source, lifted.TgdBodies(), &outcome.source_norm_stats,
                        &guard);
    if (guard.tripped()) return aborted();
    offer_checkpoint(true, "st-tgd", nullptr);
    obs::ProbePeakRss(&span);
  } else {
    outcome.normalized_source = ConcreteInstance(*resume->normalized_source);
  }

  // ---- Step 2: s-t tgd c-chase steps -------------------------------------
  // The fresh-null factory annotates with h(t), resolved per dependency.
  const FreshNullFactory fresh = [&](const Tgd& tgd,
                                     const Binding& trigger) -> Value {
    auto it = tgd_temporal.find(&tgd);
    assert(it != tgd_temporal.end());
    const Value& t_value = trigger.Get(it->second);
    assert(t_value.is_interval() &&
           "temporal variable must be bound to an interval");
    return universe->FreshAnnotatedNull(t_value.interval());
  };

  Instance target(&source.schema());
  if (start_phase == "init" || start_phase == "st-tgd") {
    if (!guard.PokeFault("cchase/tgd-phase")) return aborted();
    obs::TraceSpan span("cchase.st_tgd");
    const Instance& normalized = outcome.normalized_source.facts();
    HomomorphismFinder source_finder(normalized, &outcome.stats.search);
    HomomorphismFinder target_finder(target, &outcome.stats.search);
    DeltaFrontier full;
    RunTgds(normalized, &target, run.st_plan, &full, fresh, &outcome.stats,
            &guard, &source_finder, &target_finder, &run.triggers);
    if (guard.tripped()) {
      outcome.target = ConcreteInstance(std::move(target));
      return aborted();
    }
    obs::ProbePeakRss(&span);
  } else {
    target = *resume->target;
  }

  // ---- Steps 3+4: normalize the target, then fire target tgds and egds to
  // a joint fixpoint. Target-tgd heads inherit their trigger's interval, so
  // fragmentation introduces no new endpoints and the loop converges (the
  // guard is a defensive backstop). The paper's basic setting (no target
  // tgds) passes through this loop exactly once.
  ConcreteInstance concrete_target(std::move(target));
  TDX_RETURN_IF_ERROR(concrete_target.Validate());
  // From here on an abort can preserve the partial target for diagnosis.
  const auto aborted_with_target = [&]() {
    outcome.target = std::move(concrete_target);
    return aborted();
  };
  std::vector<Conjunction> target_phis = lifted.TargetTgdBodies();
  {
    const std::vector<Conjunction> egd_phis = lifted.EgdBodies();
    target_phis.insert(target_phis.end(), egd_phis.begin(), egd_phis.end());
  }
  // A pass that moved positions (it split a row) leaves the frontier
  // naming the wrong facts, so the frontier restarts from the full
  // instance; a pass that moved none changed no row, and the frontier and
  // every finder's indexes carry over.
  const auto normalize_target = [&]() {
    TDX_TRACE_SPAN("cchase.normalize_pass");
    NormalizeStats pass;
    const std::uint64_t generation = concrete_target.facts().generation();
    if (options.use_naive_normalizer) {
      concrete_target = NaiveNormalize(concrete_target, &pass, &guard);
    } else {
      // The state edits the target in place and re-records its watermark;
      // the egd fixpoint below reports its rewrites to it. Off the
      // incremental path the watermark is dropped after every pass, so
      // every pass starts from an empty one and no safe point carries one.
      const std::uint64_t indexed = norm_state.search().rows_indexed;
      norm_state.Normalize(&concrete_target, target_phis, &pass, &guard);
      outcome.stats.search.rows_indexed +=
          norm_state.search().rows_indexed - indexed;
      if (!use_incremental) norm_state.Invalidate();
    }
    outcome.target_norm_stats.Accumulate(pass);
    if (concrete_target.facts().generation() != generation) {
      frontier.Reset();
      egd_frontier.Reset();
    }
  };
  // Restore the loop cursor when resuming into it; otherwise mark the first
  // materialized-target boundary.
  bool mid_rounds = false;
  if (start_phase == "loop-top" || start_phase == "rounds") {
    rounds = resume->rounds;
    if (resume->frontier_full) {
      frontier.Reset();
    } else {
      frontier.AdvanceTo(resume->frontier_marks);
      frontier.AddRows(resume->frontier_rows);
    }
    if (!resume->egd_frontier_full) {
      egd_frontier.AdvanceTo(resume->egd_frontier_marks);
    }
    // A "rounds" checkpoint sits between two fired inner rounds: skip the
    // leading normalization (it ran before those rounds) and continue the
    // inner loop with the fired flag already set.
    mid_rounds = start_phase == "rounds";
    // Rebind the checkpointed normalization watermark to the restored
    // target, so the next normalize_target pass is the same incremental
    // pass the uninterrupted run would have performed. A checkpoint without
    // a watermark (or a non-incremental resume) starts with a full pass —
    // also exactly what the uninterrupted run does in those states.
    if (use_incremental && resume->norm_state_valid) {
      NormalizeState::Watermark wm;
      wm.marks = resume->norm_marks;
      wm.labels = resume->norm_labels;
      wm.num_components = resume->norm_components;
      wm.dirty = resume->norm_dirty;
      TDX_RETURN_IF_ERROR(norm_state.Restore(wm, concrete_target));
    }
    if (!resume->norm_warmth.empty()) {
      norm_state.RewarmFinder(concrete_target.facts(), resume->norm_warmth);
    }
  } else {
    offer_checkpoint(true, "loop-top", &concrete_target.facts());
  }

  // Semi-naive state: one finder over the target's (address-stable) fact
  // store for the whole loop. Its indexes absorb appends, and survive every
  // normalization pass that moves no position; a pass that splits rows, or
  // an egd rewrite, bumps the generation and they rebuild. The frontier
  // carries over the same way (normalize_target above), and takes the egd
  // fixpoint's rewritten rows as single-row seeds. Naive rounds reset it
  // every time and index afresh (RunTgds). The finder is derived state: on
  // resume it is rebuilt over the restored target, as warm as the
  // checkpoint says it was.
  HomomorphismFinder finder(concrete_target.facts(), &outcome.stats.search);
  HomomorphismFinder* round_finder = options.semi_naive ? &finder : nullptr;
  round_finder_view = round_finder;
  if (resume != nullptr && !resume->round_warmth.empty()) {
    finder.Rewarm(resume->round_warmth);
  }
  const auto run_round = [&]() {
    TDX_TRACE_SPAN("cchase.tgd_round");
    if (!options.semi_naive) frontier.Reset();
    Instance& facts = concrete_target.mutable_facts();
    return RunTgds(facts, &facts, run.target_plan, &frontier, fresh,
                   &outcome.stats, &guard, round_finder, round_finder,
                   &run.triggers);
  };
  // Normalization is idempotent, so the loop-top pass is a provable no-op
  // whenever the target is untouched since the last pass: nothing fired and
  // no egd step rewrote a value. The scheduled engine skips exactly those
  // passes; the first pass over the freshly materialized target always
  // runs, as does every pass on resume (the clean flag is not checkpointed
  // — re-running the pass is the identity on a clean target, so resumed
  // runs still produce bit-identical results).
  bool normalized_clean = false;
  while (true) {
    if (!mid_rounds) {
      if (run.schedule.has_value() && normalized_clean) {
        ++outcome.stats.skipped_normalize_passes;
      } else {
        if (!guard.PokeFault("cchase/normalize-target") ||
            !guard.CheckDeadline()) {
          return aborted_with_target();
        }
        normalize_target();
        normalized_clean = true;
        if (guard.tripped()) return aborted_with_target();
      }
    }
    bool fired = mid_rounds;
    mid_rounds = false;
    while (run_round()) {
      fired = true;
      normalized_clean = false;
      if (guard.tripped()) return aborted_with_target();
      if (++rounds > 100000) {
        return Status::Internal(
            "target-tgd c-chase exceeded its iteration budget");
      }
      offer_checkpoint(false, "rounds", &concrete_target.facts());
    }
    if (guard.tripped()) return aborted_with_target();
    if (fired) {
      // New facts may need fragmenting before the egds can see them.
      normalize_target();
      normalized_clean = true;
      if (guard.tripped()) return aborted_with_target();
    }
    const std::size_t egd_before = outcome.stats.egd_steps;
    if (run.SkipsEgdFixpoint()) {
      // Every egd is dead or effect-free: the pass would collect nothing
      // and return success without touching the target. Count the skip
      // only when there was a pass to skip at all.
      outcome.kind = ChaseResultKind::kSuccess;
      if (!lifted.egds.empty()) ++outcome.stats.skipped_egd_passes;
    } else {
      if (!guard.PokeFault("cchase/egd-fixpoint")) {
        return aborted_with_target();
      }
      TDX_TRACE_SPAN("cchase.egd_fixpoint");
      const std::uint64_t generation = concrete_target.facts().generation();
      // Semi-naive, the fixpoint matches only through the egd frontier, and
      // through the round finder, whose indexes it shares.
      EgdRewrites rewrites;
      outcome.kind = EgdFixpoint(
          &concrete_target.mutable_facts(), run.egds, &outcome.stats,
          &outcome.failure_reason, &guard, &rewrites,
          options.semi_naive ? &egd_frontier : nullptr, round_finder);
      // Rows rewritten in place stay in the watermark as dirty rows, so the
      // next pass is incremental, and join the frontier, so the next round
      // seeds them; moved positions force a full pass and a full frontier.
      if (use_incremental) {
        norm_state.NoteRewrite(concrete_target.facts(), generation, rewrites);
      }
      if (rewrites.positions_moved) {
        frontier.Reset();
      } else {
        frontier.AddRows(rewrites.rows);
      }
      if (outcome.kind == ChaseResultKind::kSuccess) {
        egd_frontier.AdvancePast(concrete_target.facts());
      }
    }
    if (outcome.kind == ChaseResultKind::kFailure) break;
    if (outcome.kind == ChaseResultKind::kAborted) return aborted_with_target();
    if (outcome.stats.egd_steps != egd_before) normalized_clean = false;
    if (!fired && outcome.stats.egd_steps == egd_before) break;
    if (++rounds > 100000) {
      return Status::Internal("c-chase exceeded its iteration budget");
    }
    offer_checkpoint(true, "loop-top", &concrete_target.facts());
  }
  if (outcome.kind == ChaseResultKind::kSuccess &&
      options.coalesce_result) {
    TDX_TRACE_SPAN("cchase.coalesce");
    concrete_target = Coalesce(concrete_target);
  }
  outcome.target = std::move(concrete_target);
  return outcome;
}

}  // namespace tdx
