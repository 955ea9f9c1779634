// The classical chase of Fagin, Kolaitis, Miller, and Popa ("Data exchange:
// semantics and query answering", TCS 2005) restricted to s-t tgds and egds.
//
// This is the per-snapshot building block of the paper's *abstract* chase
// (Section 3): chase(Ia, M) = <chase(db0, M), chase(db1, M), ...>. Because
// only s-t tgds and egds are allowed, every chase sequence is finite.
//
// The chase has two phases:
//   1. s-t tgd steps: for every homomorphism h from a tgd body to the
//      source with no extension h' from body & head to (I, J), fire — add
//      the head facts with a fresh labeled null per existential variable.
//   2. egd steps to fixpoint: for every homomorphism from an egd body to J
//      with h(x1) != h(x2): if both are non-nulls, the chase FAILS (no
//      solution exists, Proposition 4(2)); otherwise a null is replaced
//      everywhere by the other value.
//
// Chase failure is an outcome, not a Status error.

#ifndef TDX_RELATIONAL_CHASE_H_
#define TDX_RELATIONAL_CHASE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/counters.h"
#include "src/common/resource.h"
#include "src/common/status.h"
#include "src/relational/dependency.h"
#include "src/relational/homomorphism.h"
#include "src/relational/instance.h"

namespace tdx {

enum class ChaseResultKind {
  kSuccess,  ///< target is a universal solution
  kFailure,  ///< an egd equated two distinct non-null values: no solution
  kAborted,  ///< a ChaseLimits budget was exhausted; target is PARTIAL
};

struct ChaseStats {
  std::size_t tgd_triggers = 0;  ///< body homomorphisms found
  std::size_t tgd_fires = 0;     ///< triggers that actually fired
  std::size_t egd_steps = 0;     ///< successful egd applications
  std::size_t fresh_nulls = 0;   ///< labeled nulls created
  /// Facts tgd fires inserted (duplicates of existing facts excluded); the
  /// count ChaseLimits::max_facts budgets.
  std::size_t facts_inserted = 0;
  /// Argument slots rewritten by egd merges ("replaced everywhere",
  /// Definition 16) — a measure of how much substitution work the egd
  /// fixpoint did beyond the merge decisions themselves.
  std::size_t values_rewritten = 0;
  /// Egd-fixpoint invocations skipped because the schedule proved every
  /// pass a no-op (every egd dead or effect-free). Counted only when the
  /// mapping has egds at all.
  std::size_t skipped_egd_passes = 0;
  /// C-chase only: loop-top re-normalization passes skipped because
  /// nothing changed since the last normalization.
  std::size_t skipped_normalize_passes = 0;
  /// Stratum count of the schedule the run consulted; 0 when the run was
  /// unscheduled (ChaseOptions::scheduled == false).
  std::size_t schedule_strata = 0;
  /// Homomorphism-engine index counters (probes answered by a mask index,
  /// candidates those probes returned, full relation scans). Deterministic
  /// for a given program and engine configuration.
  IndexStats search;
  /// The termination certificate the run consulted: taken from
  /// Mapping::certificate when the parser filled it in, otherwise derived
  /// on entry. Runs whose certificate is kUnknown are refused upfront.
  std::optional<TerminationCertificate> certificate;

  /// The counter list (common/counters.h), ending with search's.
  template <class F, class... R>
  static void ForEachCounter(F&& f, R&... r) {
    constexpr CounterMerge kSum = CounterMerge::kSum;
    f({"triggers", "tgd_triggers", kSum}, r.tgd_triggers...);
    f({"fires", "tgd_fires", kSum}, r.tgd_fires...);
    f({"egd_steps", "egd_steps", kSum}, r.egd_steps...);
    f({"fresh_nulls", "fresh_nulls", kSum}, r.fresh_nulls...);
    f({"facts_inserted", "facts_inserted", kSum}, r.facts_inserted...);
    f({"values_rewritten", "values_rewritten", kSum}, r.values_rewritten...);
    f({"schedule_strata", "schedule_strata", CounterMerge::kShared},
      r.schedule_strata...);
    f({"skipped_egd_passes", "skipped_egd_passes", kSum},
      r.skipped_egd_passes...);
    f({"skipped_normalize_passes", "skipped_normalize_passes", kSum},
      r.skipped_normalize_passes...);
    IndexStats::ForEachCounter(f, r.search...);
  }
};

/// Execution knobs for the snapshot chase (the c-chase mirrors them in
/// CChaseOptions).
struct ChaseOptions {
  ChaseLimits limits;
  /// Delta-driven (semi-naive) target-tgd rounds: each round enumerates only
  /// the triggers whose body image touches at least one fact inserted since
  /// the frontier last advanced, instead of re-joining the entire target.
  /// Both modes produce identical outcomes — a trigger over wholly-old facts
  /// was already enumerated the round its newest fact arrived, and fired or
  /// found witnessed then — so the naive mode survives purely as the
  /// correctness oracle (tests/seminaive_chase_test.cc pins the equivalence).
  bool semi_naive = true;
  /// Consume the mapping's ChaseSchedule (deriving one when absent): skip
  /// dead rules and provably no-op egd-fixpoint passes. Scheduled and
  /// unscheduled runs produce bit-identical outcomes — the schedule only
  /// removes work the graph proves is a no-op; rule firing order never
  /// changes. Off = a flat plan (every rule live), kept as the oracle.
  bool scheduled = true;
};

struct ChaseOutcome {
  explicit ChaseOutcome(Instance target_in) : target(std::move(target_in)) {}

  ChaseResultKind kind = ChaseResultKind::kSuccess;
  /// The chase target. A universal solution iff kind == kSuccess; on
  /// kAborted it holds whatever was materialized before the budget ran out
  /// (useful for diagnosis, NEVER a solution).
  Instance target;
  ChaseStats stats;
  /// Human-readable explanation when kind == kFailure.
  std::string failure_reason;
  /// The exhausted budget dimension and its description when kAborted.
  ResourceDimension abort_dimension = ResourceDimension::kNone;
  std::string abort_reason;
};

/// Runs the chase of `source` with `mapping`, materializing a target
/// instance over the same Schema. Fresh labeled nulls come from `universe`.
/// `options.limits` bounds the run; the default is unlimited. A run that
/// exhausts its budget returns kAborted with partial stats — rerunning with
/// a larger budget from the same source reproduces the identical solution
/// (determinism is unaffected by where the budget cut the previous run).
///
/// Deterministic: full st-tgds fire before existential ones (the plan
/// ChaseRun::Begin builds), otherwise tgds fire in declaration order, with
/// triggers in canonical order; egds likewise. The result of a successful
/// chase is a universal solution (Fagin et al., Theorem 3.3).
Result<ChaseOutcome> ChaseSnapshot(const Instance& source,
                                   const Mapping& mapping, Universe* universe,
                                   const ChaseOptions& options = {});

// ---------------------------------------------------------------------------
// Building blocks, shared with the concrete chase (core/cchase.h), which
// differs only in how fresh nulls are minted (interval-annotated with h(t))
// and in the normalization steps between phases.
// ---------------------------------------------------------------------------

/// Mints the value substituted for an existential variable when `tgd` fires
/// with `trigger`. The snapshot chase returns a fresh labeled null; the
/// concrete chase returns a fresh null annotated with trigger(t). The
/// existentials are bound in `trigger` one by one as they are minted, so a
/// factory must read only body variables.
using FreshNullFactory =
    std::function<Value(const Tgd& tgd, const Binding& trigger)>;

class DeltaFrontier;

/// What an egd fixpoint's merges did to fact positions, for callers that
/// keep position-based state across it (the c-chase's incremental
/// normalizer, core/normalize_incremental.h).
struct EgdRewrites {
  /// Facts rewritten in place by light merges, sorted by (relation,
  /// position) and unique. The positions are those of the instance after
  /// the fixpoint, and every other fact is untouched. Meaningless (and
  /// left empty) once `positions_moved` is set.
  std::vector<FactRef> rows;
  /// A heavy merge rebuilt the instance or a light merge compacted it
  /// away from a collision: fact positions shifted.
  bool positions_moved = false;
};

/// Applies egd steps on `target` until fixpoint. Returns kFailure
/// (and fills `failure_reason`) when an egd equates two distinct non-null
/// values, kAborted when `guard` trips (budget, deadline, or the armed
/// fault point "chase/egd-fixpoint"). Handles labeled and
/// interval-annotated nulls uniformly.
///
/// Merges are applied through an in-place substitution over only the facts
/// that mention a merged value (found via a reverse value->fact index kept
/// across passes), falling back to a full instance rebuild when a pass
/// touches more than half the facts. Slots rewritten either way accrue to
/// ChaseStats::values_rewritten. When `rewrites` is non-null it receives
/// the rows the in-place path rewrote, or `positions_moved` when any pass
/// took the rebuild or compacted; a fixpoint that merges nothing reports
/// no rows and no move.
///
/// With `since` (not full), the caller vouches that every egd holds over
/// the facts outside it — the c-chase passes the facts appended since its
/// last fixpoint — and each pass enumerates only the egd matches touching
/// its delta: `since` first, then the rows the previous pass rewrote. The
/// merges, failures and counts other than the index counters are those of
/// a full enumeration. `finder`, when given, is a persistent finder over
/// `*target` to match through instead of a fresh one per pass.
ChaseResultKind EgdFixpoint(Instance* target, const std::vector<Egd>& egds,
                            ChaseStats* stats, std::string* failure_reason,
                            ResourceGuard* guard,
                            EgdRewrites* rewrites = nullptr,
                            const DeltaFrontier* since = nullptr,
                            HomomorphismFinder* finder = nullptr);

/// Per-relation delta frontier for semi-naive target-tgd rounds: facts of
/// relation r at positions >= mark(r) form the frontier (inserted since the
/// frontier last advanced), and so do the rows below the marks that were
/// rewritten in place since (AddRows: egd merges). A fresh or Reset
/// frontier covers every fact — round 0 seeds semi-naive evaluation with
/// the full instance; callers also Reset after anything moves fact
/// positions (a compacting or rebuilding egd merge, a normalization pass
/// that split rows), since the marks and rows then name the wrong facts.
/// Naive rounds are the same rounds with the frontier Reset before each
/// one: every trigger is re-enumerated every round, the oracle the
/// semi-naive engine is tested (and benchmarked) against.
class DeltaFrontier {
 public:
  DeltaFrontier() = default;

  /// True while the frontier covers the whole instance.
  bool full() const { return full_; }

  /// First frontier position of `rel` (0 while full or for relations that
  /// appeared after the last advance).
  std::uint32_t mark(RelationId rel) const {
    return rel < marks_.size() ? marks_[rel] : 0;
  }

  /// Re-seed with the full instance.
  void Reset() {
    full_ = true;
    marks_.clear();
    rows_.clear();
  }

  /// Raw per-relation marks, for checkpointing. Meaningful when !full().
  const std::vector<std::uint32_t>& marks() const { return marks_; }

  /// Rows below their marks rewritten since the last advance, sorted by
  /// (relation, position) and unique. Empty while full.
  const std::vector<FactRef>& rows() const { return rows_; }

  /// Adds rewritten rows (EgdRewrites::rows: sorted, unique). Rows at or
  /// past their relation's mark are frontier already; a full frontier
  /// covers every row.
  void AddRows(const std::vector<FactRef>& rows);

  /// Advances the frontier: facts of `rel` below `sizes[rel]` stop being
  /// frontier, and so do the rewritten rows. Callers pass the per-relation
  /// sizes captured at round start, so everything a round inserts is the
  /// next round's frontier.
  void AdvanceTo(std::vector<std::uint32_t> sizes) {
    full_ = false;
    marks_ = std::move(sizes);
    rows_.clear();
  }

  /// Advances past every fact `facts` holds now.
  void AdvancePast(const Instance& facts);

 private:
  bool full_ = true;
  std::vector<std::uint32_t> marks_;
  std::vector<FactRef> rows_;
};

/// The runtime form of one tgd vector's execution: which rules run, and in
/// which order. Each rule collects its triggers and then fires them
/// before the next rule collects — the restricted chase step, one rule at
/// a time, which keeps fresh-null identities and therefore the whole
/// outcome bit-identical for every plan.
struct TgdRunPlan {
  /// The rules; not owned, must outlive the plan.
  const std::vector<Tgd>* tgds = nullptr;
  /// Indices into *tgds: the live rules, in fire order — declaration
  /// order, except that the st plan puts full rules first (ChaseRun::Begin).
  std::vector<std::size_t> live;
  /// Per tgd (all indices, dead included): its head-visible universal
  /// variables, the key triggers are deduplicated and ordered by.
  /// Precomputed once per run instead of once per round.
  std::vector<std::vector<VarId>> key_vars;
  /// Per tgd: its body variables outside key_vars, in order of first
  /// occurrence. A trigger is stored as the values of key_vars then of
  /// body_vars (TriggerBatch), which binds every body variable once.
  std::vector<std::vector<VarId>> body_vars;
};

/// One rule's triggers, stored flat and reused from rule to rule. Row r is
/// one trigger: the values of the rule's key_vars, then of its body_vars
/// (TgdRunPlan), contiguous in one arena. Canonicalize orders the rows by
/// key and keeps the first collected row of each key: the restricted
/// chase's canonical trigger order, in which triggers agreeing on the key
/// would fire indistinguishable head images. Clear keeps the capacity, so
/// a warm batch collects and fires without allocating per trigger.
class TriggerBatch {
 public:
  /// Empties the batch for a rule with `key_width` key values in a row of
  /// `width` values.
  void Clear(std::size_t key_width, std::size_t width) {
    key_width_ = key_width;
    width_ = width;
    values_.clear();
    rows_ = 0;
    order_.clear();
  }

  /// Appends one row: `binding`'s values of `key_vars`, then of
  /// `body_vars`.
  void Append(const Binding& binding, const std::vector<VarId>& key_vars,
              const std::vector<VarId>& body_vars);

  /// Sorts the rows by key, ties in collection order, and keeps the first
  /// row of each key in order().
  void Canonicalize();

  /// The kept rows in fire order; filled by Canonicalize.
  const std::vector<std::uint32_t>& order() const { return order_; }

  /// The `width` values of row `r`.
  const Value* row(std::uint32_t r) const {
    return values_.data() + static_cast<std::size_t>(r) * width_;
  }

 private:
  std::size_t key_width_ = 0;
  std::size_t width_ = 0;
  std::vector<Value> values_;
  std::uint32_t rows_ = 0;
  std::vector<std::uint32_t> order_;
};

/// Builds the plan for `tgds`. Without a schedule every rule is live. With
/// one (analysis/planner.h), the live rules are
/// ChaseSchedule::live_target_tgds — so `schedule` must have been planned
/// for the mapping `tgds` are the target tgds of.
TgdRunPlan BuildTgdRunPlan(const std::vector<Tgd>& tgds,
                           const ChaseSchedule* schedule);

/// Runs `plan` once: rule by rule, collects the rule's triggers from
/// `collect_from` through `collect_finder` into `batch` — only triggers
/// whose body image touches `frontier` (its suffixes, and each rewritten
/// row seeded alone), unless it is full — then fires the canonical ones
/// (TriggerBatch::Canonicalize) into `target` through `fire_finder`
/// (restricted chase: triggers whose head is already witnessed are
/// skipped). Returns true if anything was inserted, and advances
/// `frontier` past the facts `collect_from` held on entry. `batch` is
/// scratch: the caller keeps one per run (ChaseRun::triggers) so its
/// capacity carries from rule to rule and round to round. Each rule opens
/// a `tgd.collect` and a `tgd.fire` span, both with the rule's index.
///
/// A semi-naive target-tgd round collects from the target itself, through
/// the same persistent finder it fires through (its indexes catch up with
/// inserts incrementally instead of being rebuilt per round). A naive round
/// passes a full frontier and null finders: each rule then builds one
/// fresh finder over the target, so the oracle re-indexes as well as
/// re-enumerates. The s-t tgd phase collects from the source with a full
/// frontier.
///
/// Admits each fire, null and fact against `guard` by its count in `stats`
/// and stops early once it trips; the caller checks guard->tripped() to
/// surface the abort.
bool RunTgds(const Instance& collect_from, Instance* target,
             const TgdRunPlan& plan, DeltaFrontier* frontier,
             const FreshNullFactory& fresh, ChaseStats* stats,
             ResourceGuard* guard, HomomorphismFinder* collect_finder,
             HomomorphismFinder* fire_finder, TriggerBatch* batch);

}  // namespace tdx

#endif  // TDX_RELATIONAL_CHASE_H_
