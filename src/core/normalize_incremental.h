// Algorithm 1, norm(Ic, Phi+) (Section 4.2), as one persistent pass that
// is incremental across c-chase rounds.
//
// A pass builds S (Algorithm 1, line 3): for each phi* in N(Phi+), every
// homomorphic image whose fact intervals intersect forms a group; groups
// sharing a fact merge (lines 4-10), i.e. the pass takes connected
// components of the overlap graph with union-find. Facts sharing an
// annotated null over overlapping time join one component too
// (NullClusters in normalize_detail.h), a kind of group Algorithm 1 as
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
//    Normalize (normalize.h) is exactly this pass over a const input.
//
//  * With a watermark, the homomorphism sweep is seeded from the appended
//    suffix (ForEachSeeded per atom over [mark, size)) and from each dirty
//    row, finding exactly the homs that touch at least one new or rewritten
//    fact. Old facts pulled into a group are expanded transitively (all
//    homs through them, again via single-fact seeds), and so are facts
//    sharing an annotated null with a grouped fact, so every component
//    containing a new or dirty fact is discovered in full. The previous
//    component of a dirty row is re-derived whole: its other members are
//    expanded too, since the rewrite may have split it.
//
//  * Components without any new or dirty fact are provably already
//    normalized: any hom (or shared-null pair) whose image holds no such
//    fact existed unchanged in the previous output, which has the empty
//    intersection property, so an all-old image with a nonempty
//    intersection has all-equal intervals, such components carry one
//    shared interval, and fragmenting them is the identity. Their facts
//    are copied straight through with their previous labels. Dirty
//    components are re-fragmented in the same dense-id order a pass from
//    an empty watermark emits, so the output is bit-identical to one.
//
// The output is installed in place (move-assigned into the instance's fact
// store) and the watermark re-recorded with an empty dirty set, keeping ONE
// persistent state alive across the whole chase loop. Fault sites:
// "normalize/algorithm1" (a pass from an empty watermark) and
// "normalize/incremental" (a watermarked pass).

#ifndef TDX_CORE_NORMALIZE_INCREMENTAL_H_
#define TDX_CORE_NORMALIZE_INCREMENTAL_H_

#include <cstdint>
#include <optional>
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

  /// Normalizes `*instance` w.r.t. `phis`, replacing its fact store with
  /// the normalized output. The pass starts from the watermark when it
  /// matches `*instance`, from an empty one otherwise. Guard contract as in
  /// normalize.h: on a trip stats->partial is set and the state invalidates
  /// itself; a trip before the merge leaves the instance as it was, one
  /// during the merge installs the partial output (garbage either way).
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
  /// per-relation component labels flattened in relation order (dense in
  /// first-emission order, kUngrouped for pass-through facts); sum(marks)
  /// == labels.size(). `dirty` lists the prefix rows rewritten since the
  /// last pass, sorted by (relation, position), each below its mark.
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
  /// label values dense, dirty rows ascending and below their marks);
  /// InvalidArgument on a torn checkpoint.
  Status Restore(const Watermark& wm, const ConcreteInstance& instance);

 private:
  friend ConcreteInstance Normalize(const ConcreteInstance& instance,
                                    const std::vector<Conjunction>& phis,
                                    NormalizeStats* stats,
                                    ResourceGuard* guard);

  /// One pass of Algorithm 1 over `facts` into the empty `*out`, from the
  /// watermark when it is valid (the caller proved it matches `facts`),
  /// from an empty one otherwise. Returns true when `*out` holds the
  /// output, possibly partial (stats->partial), and false when there is
  /// nothing to install: the watermark proves `facts` already normalized,
  /// or the guard tripped before the merge. Leaves the output's labels in
  /// flat_labels_ and their count in num_labels_, and invalidates on a
  /// trip.
  bool Pass(const Instance& facts, const std::vector<Conjunction>& phis,
            Instance* out, NormalizeStats* stats, ResourceGuard* guard);
  /// Records `*instance` (just installed) as the new watermark, labeled by
  /// flat_labels_ in emission order.
  void Record(const ConcreteInstance& instance);
  /// Buckets the previous output's dense ids by component label into
  /// prev_begin_/prev_members_ (base_ must describe the current pass).
  void IndexPreviousComponents();
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
  std::uint32_t num_components_ = 0;
  /// Prefix rows rewritten in place since the last pass, ascending.
  std::vector<FactRef> dirty_;

  // ---- reusable machinery --------------------------------------------
  /// One finder kept across passes: it catches up on appends and rebuilds
  /// after the install's generation bump (homomorphism.h).
  std::optional<HomomorphismFinder> finder_;
  const Instance* finder_bound_ = nullptr;
  normalize_detail::UnionFind uf_;
  std::vector<char> grouped_;
  std::vector<char> fresh_;
  std::vector<char> enqueued_;
  normalize_detail::NullClusters clusters_;
  std::vector<char> cluster_done_;
  /// Per previous component (by label): whether this pass reached it.
  std::vector<char> prev_touched_;
  /// Members (dense ids) of previous component c are
  /// prev_members_[prev_begin_[c], prev_begin_[c + 1]).
  std::vector<std::size_t> prev_begin_;
  std::vector<std::size_t> prev_members_;
  std::vector<std::size_t> queue_;
  std::vector<std::size_t> base_;
  /// Dirty component of a union-find root, dense in first-seen order
  /// (kUngrouped when unassigned).
  std::vector<std::uint32_t> root_comp_;
  /// Sorted distinct endpoints of each dirty component.
  std::vector<std::vector<TimePoint>> comp_points_;
  /// Output label of each dirty component, and of each previous component
  /// copied through (kUngrouped until first emitted).
  std::vector<std::uint32_t> dirty_label_;
  std::vector<std::uint32_t> prev_label_;
  /// Fragments of the grouped fact being merged; reused across facts.
  std::vector<Interval> frag_buf_;
  std::vector<std::uint32_t> flat_labels_;
  std::uint32_t num_labels_ = 0;
};

}  // namespace tdx

#endif  // TDX_CORE_NORMALIZE_INCREMENTAL_H_
