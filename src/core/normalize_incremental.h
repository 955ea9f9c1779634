// Incremental delta-driven normalization (the fast path of Section 4.2's
// Algorithm 1 across c-chase rounds).
//
// After the first full pass, every later normalize_target call sees an
// instance that is the previous normalized output, changed in two ways
// only: tgd rounds appended facts, and egd merges rewrote some rows in
// place. NormalizeState exploits that shape:
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
//    watermark, and the next pass runs the full Algorithm 1.
//
//  * The homomorphism sweep is seeded from the appended suffix
//    (ForEachSeeded per atom over [mark, size)) and from each dirty row,
//    finding exactly the homs that touch at least one new or rewritten
//    fact. Old facts pulled into a group are expanded transitively (all
//    homs through them, again via single-fact seeds), and so are facts
//    sharing an annotated null with a grouped fact (NullClusters in
//    normalize_detail.h), so every component containing a new or dirty
//    fact is discovered in full. The previous component of a dirty row is
//    re-derived whole: its other members are expanded too, since the
//    rewrite may have split it.
//
//  * Components without any new or dirty fact are provably already
//    normalized: any hom (or shared-null pair) whose image holds no such
//    fact existed unchanged in the previous output, which has the empty
//    intersection property, so an all-old image with a nonempty
//    intersection has all-equal intervals, such components carry one
//    shared interval, and fragmenting them is the identity. Their facts
//    are copied straight through with their previous labels. Dirty
//    components are re-fragmented — in parallel across the thread pool
//    when jobs > 1, with cut vectors resolved sequentially first and a
//    deterministic sequential merge, so the output is bit-identical to a
//    full Normalize at any job count.
//
// The output is installed in place (move-assigned into the instance's fact
// store) and the watermark re-recorded with an empty dirty set, keeping ONE
// persistent state alive across the whole chase loop. Fault site:
// "normalize/incremental".

#ifndef TDX_CORE_NORMALIZE_INCREMENTAL_H_
#define TDX_CORE_NORMALIZE_INCREMENTAL_H_

#include <cstdint>
#include <map>
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

/// Persistent normalization state for one chase target. Not thread-safe;
/// the parallelism is internal (fragmentation fan-out).
class NormalizeState {
 public:
  /// `jobs` is the fragmentation fan-out width (1 = fully sequential; the
  /// output does not depend on it).
  explicit NormalizeState(unsigned jobs = 1) : jobs_(jobs) {}

  /// Normalizes `*instance` w.r.t. `phis`, replacing its fact store with
  /// the normalized output. Runs the incremental pass when the watermark
  /// matches `*instance`, a full Algorithm 1 pass otherwise. Guard contract
  /// as in normalize.h: on a trip the instance holds a partially normalized
  /// result (garbage), stats->partial is set, and the state invalidates
  /// itself.
  void Normalize(ConcreteInstance* instance,
                 const std::vector<Conjunction>& phis,
                 NormalizeStats* stats = nullptr,
                 ResourceGuard* guard = nullptr);

  /// Drops the watermark; the next pass is a full one. Idempotent.
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
  /// per-relation component labels flattened in relation order; sum(marks)
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
  void FullPass(ConcreteInstance* instance,
                const std::vector<Conjunction>& phis, NormalizeStats* stats,
                ResourceGuard* guard);
  void IncrementalPass(ConcreteInstance* instance,
                       const std::vector<Conjunction>& phis,
                       NormalizeStats* stats, ResourceGuard* guard);
  /// Records `*instance` (just installed) as the new watermark. `flat`
  /// holds the output's labels in emission order.
  void Record(const ConcreteInstance& instance,
              const std::vector<std::uint32_t>& flat,
              std::uint32_t num_components);
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
  /// [0, marks_[r])); NormalizeLabels::kUngrouped for pass-through facts.
  std::vector<std::vector<std::uint32_t>> comp_of_;
  std::uint32_t num_components_ = 0;
  /// Prefix rows rewritten in place since the last pass, ascending.
  std::vector<FactRef> dirty_;

  // ---- reusable machinery --------------------------------------------
  unsigned jobs_;
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
  std::vector<std::size_t> grouped_ids_;
  std::vector<const std::vector<TimePoint>*> cuts_of_;
  std::vector<std::vector<Interval>> frag_slots_;
  std::vector<std::uint32_t> flat_labels_;
};

}  // namespace tdx

#endif  // TDX_CORE_NORMALIZE_INCREMENTAL_H_
