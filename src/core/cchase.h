// The concrete chase, c-chase (Section 4.3, Definition 16).
//
// Given a lifted data exchange setting M+ = (R+S, R+T, Sigma+st, Sigma+eg)
// and a concrete source instance, the c-chase is:
//
//   1. normalize the source w.r.t. the lhs of Sigma+st (Algorithm 1), so
//      that each dependency's shared temporal variable t can map to a
//      single interval;
//   2. apply all s-t tgd c-chase steps: a step fired by homomorphism h
//      mints, for each existential variable, a fresh null ANNOTATED WITH
//      h(t) — the interval-annotated nulls of Section 4.1;
//   3. normalize the target w.r.t. the lhs of Sigma+eg (fragmenting a fact
//      re-annotates its nulls to the fragment's interval);
//   4. apply egd c-chase steps to fixpoint: equating two distinct non-null
//      values is a failure (no solution exists, Theorem 19(2)); otherwise
//      an annotated null is replaced everywhere by the other value. All
//      values equated by an egd step share one interval, because the egd's
//      atoms share t.
//
// The result of a successful c-chase is a *concrete solution*; its
// semantics [[Jc]] is a universal solution of [[Ic]] (Theorem 19), i.e.
// homomorphically equivalent to the abstract chase result (Corollary 20) —
// verified end-to-end by core/align.h.

#ifndef TDX_CORE_CCHASE_H_
#define TDX_CORE_CCHASE_H_

#include <string>

#include "src/core/normalize.h"
#include "src/relational/chase.h"
#include "src/temporal/concrete_instance.h"

namespace tdx {

// Checkpoint/resume support (src/common/checkpoint.h); forward-declared so
// the options can carry the hooks without an include cycle.
class Checkpointer;
struct ChaseCheckpoint;

struct CChaseOptions {
  /// Normalize (Algorithm 1) vs NaiveNormalize for the two normalization
  /// steps. Algorithm 1 by default; the naive normalizer is exposed for the
  /// ablation benchmarks.
  bool use_naive_normalizer = false;
  /// Reuse normalization work across target passes (see
  /// core/normalize_incremental.h): after the first full pass, each
  /// normalize_target seeds its homomorphism sweep from the facts appended
  /// and the rows egd merges rewrote in place since the previous pass, and
  /// re-fragments only the touched components.
  /// Never changes the result (output is bit-identical to full passes),
  /// so the checkpoint config fingerprint ignores it and
  /// checkpoints interchange between incremental and full runs. Ignored
  /// under use_naive_normalizer.
  bool incremental_normalize = true;
  /// Resource budget for the whole run (all four phases share one guard).
  /// Unlimited by default. Exhaustion yields kind == kAborted with partial
  /// stats and the exhausted dimension; rerunning the same source with a
  /// larger budget yields the identical solution.
  ChaseLimits limits;
  /// Semi-naive target-tgd rounds (see ChaseOptions::semi_naive). The
  /// frontier is re-seeded with the full instance after every normalization
  /// step, since fragmentation rewrites existing facts.
  bool semi_naive = true;
  /// When set, the c-chase offers a checkpoint at every safe point and the
  /// checkpointer decides which to persist. Safe points: "init" (nothing
  /// run), "st-tgd" (source normalized), "loop-top" (target materialized,
  /// next step normalizes it), "rounds" (between two fired target-tgd
  /// rounds). Normalization passes and egd fixpoints are atomic between
  /// safe points — a kill inside one redoes the whole phase identically on
  /// resume. Not owned; may be null.
  Checkpointer* checkpointer = nullptr;
  /// When set, the c-chase restores the checkpointed state and continues
  /// from its safe point instead of starting fresh. The checkpoint must have
  /// been written under the same execution options (validated); limits may
  /// differ — raising the budget is the intended recovery path. Not owned;
  /// must outlive the call. May be null.
  const ChaseCheckpoint* resume_from = nullptr;
  /// Consult the chase planner's schedule (see ChaseOptions::scheduled):
  /// skip dead rules, provably no-op egd fixpoints and provably no-op
  /// re-normalization passes. Never changes the result; off = the flat
  /// engine.
  bool scheduled = true;
};

struct CChaseOutcome {
  CChaseOutcome(ConcreteInstance normalized_source_in,
                ConcreteInstance target_in)
      : normalized_source(std::move(normalized_source_in)),
        target(std::move(target_in)) {}

  ChaseResultKind kind = ChaseResultKind::kSuccess;
  /// The source after step 1 (useful to inspect; Figure 5 of the paper).
  ConcreteInstance normalized_source;
  /// The concrete solution (valid iff kind == kSuccess). On kAborted it
  /// holds whatever was materialized before the budget ran out — NEVER a
  /// solution.
  ConcreteInstance target;
  /// The run's work, the one record of it: budgets are admitted against
  /// these counts, checkpoints carry them, and the cchase.* and
  /// normalize.incremental.* metrics are published from them.
  ChaseStats stats;
  /// The source normalization pass (step 1).
  NormalizeStats source_norm_stats;
  /// Every target normalization pass, added up (NormalizeStats::Accumulate).
  NormalizeStats target_norm_stats;
  std::string failure_reason;
  /// The exhausted budget dimension and its description when kAborted.
  ResourceDimension abort_dimension = ResourceDimension::kNone;
  std::string abort_reason;
};

/// Runs the c-chase. `lifted` must be a mapping over concrete (temporal)
/// relations whose dependencies carry the shared temporal variable t —
/// either produced by LiftMapping or hand-built; the temporal variable is
/// taken from Tgd::temporal_var or inferred as the variable occupying the
/// temporal position of every atom. `source` must be complete.
Result<CChaseOutcome> CChase(const ConcreteInstance& source,
                             const Mapping& lifted, Universe* universe,
                             const CChaseOptions& options = {});

/// The temporal variable of a lifted conjunction: the single variable that
/// occupies the temporal (last) position of every atom. InvalidArgument if
/// the atoms disagree or the position holds a non-variable.
Result<VarId> InferTemporalVar(const Conjunction& conj);

}  // namespace tdx

#endif  // TDX_CORE_CCHASE_H_
