// Algorithm 1, norm(Ic, Phi+) (Section 4.2), as one persistent pass that
// is incremental across c-chase rounds.
//
// A pass builds S (Algorithm 1, line 3): for each phi* in N(Phi+), every
// homomorphic image whose fact intervals intersect forms a group; groups
// sharing a fact merge (lines 4-10), i.e. the pass takes connected
// components of the overlap graph with union-find. Facts sharing an
// annotated null over overlapping time join one component too
// (NullIndex in normalize_detail.h), a kind of group Algorithm 1 as
// published lacks. Each component's facts are then fragmented at the
// component's distinct endpoints (TP_Delta, lines 11-18); ungrouped facts
// pass through unchanged.
//
// After a pass, every later normalize_target call sees an instance that is
// the previous normalized output, changed in two ways only: tgd rounds
// appended facts, and egd merges rewrote some rows in place. NormalizeState
// exploits that shape:
//
//  * A *watermark* remembers, per relation, how many facts the previous
//    output had (its prefix sizes), the Instance generation it was recorded
//    at, and a *dirty set* of prefix rows rewritten since. Insert only
//    appends and does not bump the generation, so "generation unchanged and
//    columns only grew" proves every prefix row outside the dirty set IS
//    the previous output's row, verbatim. An in-place egd rewrite does bump
//    the generation, but the c-chase hands its report to NoteRewrite: when
//    fact positions did not move, the rewritten rows join the dirty set
//    and the watermark follows the new generation. Anything else that
//    bumps the generation (a heavy egd merge that rebuilds the instance, a
//    compacting rewrite, an erase, an assignment) invalidates the
//    watermark.
//
//  * Without a valid watermark every fact is fresh: each phi* is swept
//    once, unseeded, so every homomorphism is counted once, and each null
//    cluster joins whole. This is the full Algorithm 1, and the free
//    Normalize (normalize.h) is exactly this pass over a copy of its input.
//
//  * With a watermark, the homomorphism sweep is seeded from the appended
//    suffix (an OpenSeeded cursor per atom over [mark, size)) and from each
//    dirty row, finding exactly the homs that touch at least one new or
//    rewritten fact. Old facts pulled into a group are expanded
//    transitively (all homs through them, again via single-fact seeds), and
//    so are facts sharing an annotated null with a grouped fact, so every
//    component containing a new or dirty fact is discovered in full. The
//    previous component of a dirty row is re-derived whole: its other
//    members are expanded too, since the rewrite may have split it.
//
//  * Components without any new or dirty fact are provably already
//    normalized: any hom (or shared-null pair) whose image holds no such
//    fact existed unchanged in the previous output, which has the empty
//    intersection property, so an all-old image with a nonempty
//    intersection has all-equal intervals, such components carry one
//    shared interval, and fragmenting them is the identity. Their facts
//    keep their rows and their previous labels.
//
// The pass edits the instance in place. A row that fragmentation leaves
// whole stays where it is; a relation is rewritten only from its first
// row that splits onward, in the order a pass into an empty instance emits
// (per row, its fragments, deduplicated), so the output is bit-identical
// to a fresh emission. Only that tail rewrite moves positions, so only it
// bumps the generation: a pass that splits no row leaves the generation,
// every finder's indexes and the chase's semi-naive frontier intact.
//
// Every structure a pass reads is kept per delta rather than rebuilt: the
// scratch arrays are reset through the lists of ids the pass touched, the
// null clusters come from a null->rows index that absorbs appended and
// rewritten rows, and each previous component keeps its member list. So a
// watermarked pass reads only appended, dirty and reached rows, and writes
// only relabeled rows and rewritten tails (NormalizeStats::rows_visited).
// The watermark is then re-recorded with an empty dirty set, keeping ONE
// persistent state alive across the whole chase loop. Fault sites:
// "normalize/algorithm1" (a pass from an empty watermark) and
// "normalize/incremental" (a watermarked pass).

#ifndef TDX_CORE_NORMALIZE_INCREMENTAL_H_
#define TDX_CORE_NORMALIZE_INCREMENTAL_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/resource.h"
#include "src/common/status.h"
#include "src/core/normalize.h"
#include "src/core/normalize_detail.h"
#include "src/relational/homomorphism.h"
#include "src/relational/instance.h"
#include "src/temporal/concrete_instance.h"

namespace tdx {

struct EgdRewrites;  // relational/chase.h

/// Persistent normalization state for one chase target. Not thread-safe.
class NormalizeState {
 public:
  /// Component label of a pass-through (ungrouped) fact.
  static constexpr std::uint32_t kUngrouped = 0xFFFFFFFFu;

  /// Normalizes `*instance` w.r.t. `phis` in place. The pass starts from
  /// the watermark when it matches `*instance`, from an empty one
  /// otherwise. Guard contract as in normalize.h: on a trip stats->partial
  /// is set, the state invalidates itself and the instance is left as it
  /// was (unnormalized, so garbage to the caller).
  void Normalize(ConcreteInstance* instance,
                 const std::vector<Conjunction>& phis,
                 NormalizeStats* stats = nullptr,
                 ResourceGuard* guard = nullptr);

  /// Drops the watermark; the next pass starts from an empty one.
  /// Idempotent.
  void Invalidate();

  /// Adopts an egd fixpoint's in-place rewrite of `facts` (EgdFixpoint's
  /// report; `generation_before` is the instance generation the fixpoint
  /// started from). When the watermark was valid for `facts` at that
  /// generation and no position moved, the rewritten prefix rows join the
  /// dirty set and the watermark follows the new generation; otherwise the
  /// state invalidates.
  void NoteRewrite(const Instance& facts, std::uint64_t generation_before,
                   const EgdRewrites& rewrites);

  /// True when the next Normalize of `instance` would take the incremental
  /// path (watermark bound to it, generation unchanged, columns only grew).
  bool MatchesWatermark(const ConcreteInstance& instance) const;

  /// Serializable image of the watermark for checkpointing. `labels` is the
  /// per-relation component labels flattened in relation order, renumbered
  /// densely in order of first appearance (kUngrouped for pass-through
  /// facts); sum(marks) == labels.size(). `num_components` is the
  /// component count the next pass's reused_components subtracts from.
  /// `dirty` lists the prefix rows rewritten since the last pass, sorted by
  /// (relation, position), each below its mark.
  struct Watermark {
    std::vector<std::uint32_t> marks;
    std::vector<std::uint32_t> labels;
    std::uint32_t num_components = 0;
    std::vector<FactRef> dirty;
  };

  /// Exports the watermark when it is currently valid for `facts` (same
  /// binding, same generation — i.e. the old-prefix proof still holds);
  /// nullopt otherwise. A checkpoint taken after a light egd rewrite
  /// carries the dirty rows, so the resumed run takes the same incremental
  /// pass as the uninterrupted one.
  std::optional<Watermark> Export(const Instance* facts) const;

  /// Rebinds a checkpointed watermark to a freshly deserialized instance.
  /// Validates shape (marks within column sizes, labels parallel to marks,
  /// label values below num_components, dirty rows ascending and below
  /// their marks); InvalidArgument on a torn checkpoint.
  Status Restore(const Watermark& wm, const ConcreteInstance& instance);

  /// Index work of the state's finder (IndexStats::rows_indexed), summed
  /// over its life.
  const IndexStats& search() const { return search_; }
  /// The finder's warm indexes when it is bound to `facts` (index.h); the
  /// checkpoint carries them so a resumed run indexes exactly as much.
  std::vector<IndexWarmth> FinderWarmth(const Instance* facts) const;
  /// Binds the finder to `facts` and rebuilds `warmth` without counting.
  void RewarmFinder(const Instance& facts,
                    const std::vector<IndexWarmth>& warmth);

 private:
  friend ConcreteInstance Normalize(const ConcreteInstance& instance,
                                    const std::vector<Conjunction>& phis,
                                    NormalizeStats* stats,
                                    ResourceGuard* guard);

  /// Per null, this pass's clusters: runs of two or more transitively
  /// overlapping facts carrying it (normalize_detail.h, NullIndex).
  struct NullRuns {
    /// Dense ids of the clustered facts, run after run.
    std::vector<std::size_t> members;
    /// Run k is members[begin[k], begin[k + 1]).
    std::vector<std::uint32_t> begin;
    /// (dense id, run) for each member, sorted by id.
    std::vector<std::pair<std::size_t, std::uint32_t>> run_of;
    std::vector<char> done;
  };
  /// One relation's rewritten tail: rows from `begin` on, read out to
  /// tail_rows_ from `first_row` and to tail_values_ from `first_value`.
  struct TailSpan {
    RelationId rel;
    std::uint32_t begin;
    std::size_t first_row;
    std::size_t first_value;
    std::uint32_t arity;
  };
  /// One row of a rewritten tail, read before the tail is truncated.
  struct TailRow {
    std::uint32_t old_label;
    std::uint32_t new_label;
    /// Dirty component when grouped, kUngrouped otherwise.
    std::uint32_t comp;
  };

  /// One pass of Algorithm 1 over `*facts`, in place, from the watermark
  /// when it is valid (the caller proved it matches), from an empty one
  /// otherwise. Leaves the watermark recorded for the output, or
  /// invalidated on a trip.
  void Pass(Instance* facts, const std::vector<Conjunction>& phis,
            NormalizeStats* stats, ResourceGuard* guard);
  /// This pass's runs of `null` (computed on first use).
  NullRuns& RunsOf(const Instance& facts, NullId null);
  /// The rows labeled `label` now, ascending (compacts its member list).
  const std::vector<FactRef>& MembersOf(std::uint32_t label);
  /// A label with no rows, for a new component.
  std::uint32_t AllocateLabel();
  /// Moves one row from label `from` to label `to` (either may be
  /// kUngrouped) in the label counts and member lists.
  void Relabel(std::uint32_t from, std::uint32_t to, FactRef row);
  /// Rebuilds the label counts from comp_of_ (Restore); the member lists
  /// follow on first use.
  void RebuildDerived();
  /// Sweeps one null's rows (ascending) into `*runs`: its runs of two or
  /// more transitively overlapping facts.
  void SweepRuns(const Instance& facts, const std::vector<FactRef>& rows,
                 NullRuns* runs);
  /// Returns the pass scratch to rest: every array the pass marked is
  /// cleared through the id lists that recorded the marks.
  void ResetScratch();
  /// Dense id -> (relation, position) under base_.
  FactRef RefAt(std::size_t id) const;
  /// Mark of relation `r` (0 when the schema grew past the watermark).
  std::uint32_t MarkOf(std::size_t r) const {
    return r < marks_.size() ? marks_[r] : 0;
  }

  // ---- watermark -----------------------------------------------------
  bool valid_ = false;
  const Instance* bound_ = nullptr;
  std::uint64_t generation_ = 0;
  std::vector<std::uint32_t> marks_;
  /// Per-relation component labels of the previous output (positions
  /// [0, marks_[r])); kUngrouped for pass-through facts.
  std::vector<std::vector<std::uint32_t>> comp_of_;
  /// The previous pass's component count, as the pass that made the
  /// output counted it: every dirty component plus every previous one
  /// still holding a pass-through fact.
  std::uint32_t num_components_ = 0;
  /// Prefix rows rewritten in place since the last pass, ascending.
  std::vector<FactRef> dirty_;

  // ---- labels (ids are internal; Export renumbers them) ---------------
  /// Rows carrying each label, and labels with at least one row.
  std::vector<std::uint32_t> label_rows_;
  std::size_t live_labels_ = 0;
  /// Rows of each label, possibly with stale entries (MembersOf filters
  /// them against comp_of_). Built on first use after a full pass or a
  /// restore, then kept up to date (members_valid_).
  std::vector<std::vector<FactRef>> label_members_;
  bool members_valid_ = false;
  /// Labels with no rows, reusable by AllocateLabel.
  std::vector<std::uint32_t> free_labels_;
  /// The null->rows index: built by a full pass or a restore, then kept
  /// up to date by absorbing appended and rewritten rows.
  normalize_detail::NullIndex nulls_;

  // ---- reusable machinery --------------------------------------------
  /// One finder kept across passes: it catches up on appends and rebuilds
  /// only when a pass or an egd rewrite moved the generation
  /// (homomorphism.h).
  std::optional<HomomorphismFinder> finder_;
  const Instance* finder_bound_ = nullptr;
  IndexStats search_;
  // Scratch over dense ids (base_[relation] + position), all-zero at rest.
  normalize_detail::UnionFind uf_;
  std::vector<char> grouped_;
  std::vector<char> fresh_;
  std::vector<char> enqueued_;
  /// Dirty component of a union-find root, dense in first-seen order
  /// (kUngrouped when unassigned).
  std::vector<std::uint32_t> root_comp_;
  std::vector<std::size_t> fresh_ids_;
  std::vector<std::size_t> grouped_ids_;
  /// The grouped facts in dense-id order, once the pass has grouped them,
  /// and the dirty component of each.
  std::vector<FactRef> grouped_rows_;
  std::vector<std::uint32_t> grouped_comp_;
  std::vector<std::size_t> queue_;
  // Scratch over labels, zero at rest.
  /// Per previous component: whether this pass reached it (kReached) or
  /// re-derives it because one of its rows was rewritten (kRederived).
  std::vector<char> prev_touched_;
  std::vector<std::uint32_t> touched_labels_;
  std::vector<char> label_changed_;
  std::vector<std::uint32_t> changed_labels_;
  std::unordered_map<NullId, NullRuns> runs_;
  std::vector<FactRef> null_rows_;
  /// One null's occurrences being swept (SweepRuns).
  struct Occ {
    TimePoint start;
    TimePoint end;
    std::size_t id;
  };
  std::vector<Occ> occ_;
  std::vector<std::size_t> base_;
  /// Sorted distinct endpoints of each dirty component.
  std::vector<std::vector<TimePoint>> comp_points_;
  /// Output label of each dirty component.
  std::vector<std::uint32_t> dirty_label_;
  /// First changed row per relation (its column size when none).
  std::vector<std::uint32_t> tail_begin_;
  std::vector<TailSpan> tail_spans_;
  std::vector<Value> tail_values_;
  std::vector<TailRow> tail_rows_;
  /// Fragments of the grouped fact being emitted, and the arguments of
  /// one of them; reused across facts.
  std::vector<Interval> frag_buf_;
  std::vector<Value> frag_args_;
  std::size_t rows_visited_ = 0;
};

}  // namespace tdx

#endif  // TDX_CORE_NORMALIZE_INCREMENTAL_H_
