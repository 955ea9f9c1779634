#include "src/core/normalize_incremental.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/relational/chase.h"

namespace tdx {

using normalize_detail::EmitCopy;
using normalize_detail::IntersectIntervals;

void NormalizeState::Invalidate() {
  valid_ = false;
  bound_ = nullptr;
  marks_.clear();
  comp_of_.clear();
  num_components_ = 0;
  dirty_.clear();
}

void NormalizeState::NoteRewrite(const Instance& facts,
                                 std::uint64_t generation_before,
                                 const EgdRewrites& rewrites) {
  if (!valid_ || bound_ != &facts || generation_ != generation_before ||
      rewrites.positions_moved) {
    Invalidate();
    return;
  }
  // Rows at or past a mark are appended facts, already in the next pass's
  // delta.
  for (const FactRef& row : rewrites.rows) {
    if (row.pos < MarkOf(row.rel)) dirty_.push_back(row);
  }
  std::sort(dirty_.begin(), dirty_.end());
  dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
  generation_ = facts.generation();
}

bool NormalizeState::MatchesWatermark(const ConcreteInstance& instance) const {
  if (!valid_ || bound_ != &instance.facts()) return false;
  const Instance& facts = instance.facts();
  if (generation_ != facts.generation()) return false;
  const std::size_t num_rels = instance.schema().relation_count();
  if (marks_.size() > num_rels) return false;
  for (std::size_t r = 0; r < marks_.size(); ++r) {
    if (facts.facts(static_cast<RelationId>(r)).size() < marks_[r]) {
      return false;
    }
  }
  return true;
}

std::optional<NormalizeState::Watermark> NormalizeState::Export(
    const Instance* facts) const {
  if (!valid_ || bound_ != facts || generation_ != facts->generation()) {
    return std::nullopt;
  }
  Watermark wm;
  wm.marks = marks_;
  for (const std::vector<std::uint32_t>& rel_labels : comp_of_) {
    wm.labels.insert(wm.labels.end(), rel_labels.begin(), rel_labels.end());
  }
  wm.num_components = num_components_;
  wm.dirty = dirty_;
  return wm;
}

Status NormalizeState::Restore(const Watermark& wm,
                               const ConcreteInstance& instance) {
  const Instance& facts = instance.facts();
  const std::size_t num_rels = instance.schema().relation_count();
  if (wm.marks.size() > num_rels) {
    return Status::InvalidArgument(
        "normalize watermark names more relations than the schema has");
  }
  std::size_t flat = 0;
  for (std::size_t r = 0; r < wm.marks.size(); ++r) {
    if (facts.facts(static_cast<RelationId>(r)).size() < wm.marks[r]) {
      return Status::InvalidArgument(
          "normalize watermark mark exceeds its relation's fact count");
    }
    flat += wm.marks[r];
  }
  if (flat != wm.labels.size()) {
    return Status::InvalidArgument(
        "normalize watermark labels are not parallel to its marks");
  }
  for (const std::uint32_t label : wm.labels) {
    if (label != NormalizeLabels::kUngrouped && label >= wm.num_components) {
      return Status::InvalidArgument(
          "normalize watermark label out of component range");
    }
  }
  for (std::size_t k = 0; k < wm.dirty.size(); ++k) {
    const FactRef& row = wm.dirty[k];
    if (row.rel >= wm.marks.size() || row.pos >= wm.marks[row.rel]) {
      return Status::InvalidArgument(
          "normalize watermark dirty row lies beyond its relation's mark");
    }
    if (k > 0 && wm.dirty[k - 1] >= row) {
      return Status::InvalidArgument(
          "normalize watermark dirty rows are not strictly ascending");
    }
  }
  marks_ = wm.marks;
  dirty_ = wm.dirty;
  comp_of_.clear();
  comp_of_.reserve(marks_.size());
  std::size_t off = 0;
  for (const std::uint32_t mark : marks_) {
    comp_of_.emplace_back(wm.labels.begin() + off, wm.labels.begin() + off + mark);
    off += mark;
  }
  num_components_ = wm.num_components;
  bound_ = &instance.facts();
  generation_ = facts.generation();
  valid_ = true;
  return Status::OK();
}

void NormalizeState::Record(const ConcreteInstance& instance,
                            const std::vector<std::uint32_t>& flat,
                            std::uint32_t num_components) {
  const Instance& facts = instance.facts();
  const std::size_t num_rels = instance.schema().relation_count();
  marks_.resize(num_rels);
  comp_of_.assign(num_rels, {});
  std::size_t off = 0;
  for (std::size_t r = 0; r < num_rels; ++r) {
    const std::size_t n = facts.facts(static_cast<RelationId>(r)).size();
    marks_[r] = static_cast<std::uint32_t>(n);
    comp_of_[r].assign(flat.begin() + off, flat.begin() + off + n);
    off += n;
  }
  assert(off == flat.size() && "labels must be parallel to the output");
  num_components_ = num_components;
  dirty_.clear();
  bound_ = &instance.facts();
  generation_ = facts.generation();
  valid_ = true;
}

void NormalizeState::FullPass(ConcreteInstance* instance,
                              const std::vector<Conjunction>& phis,
                              NormalizeStats* stats, ResourceGuard* guard) {
  NormalizeLabels labels;
  ConcreteInstance out =
      tdx::Normalize(*instance, phis, stats, guard, &labels);
  instance->mutable_facts() = std::move(out.mutable_facts());
  if (guard != nullptr && guard->tripped()) {
    Invalidate();
    return;
  }
  Record(*instance, labels.comp_of, labels.num_components);
}

void NormalizeState::IndexPreviousComponents() {
  prev_begin_.assign(num_components_ + 1, 0);
  for (const std::vector<std::uint32_t>& labels : comp_of_) {
    for (const std::uint32_t label : labels) {
      if (label != NormalizeLabels::kUngrouped) ++prev_begin_[label + 1];
    }
  }
  for (std::size_t c = 0; c < num_components_; ++c) {
    prev_begin_[c + 1] += prev_begin_[c];
  }
  prev_members_.resize(prev_begin_.back());
  std::vector<std::size_t> fill(prev_begin_.begin(), prev_begin_.end() - 1);
  for (RelationId r = 0; r < comp_of_.size(); ++r) {
    for (std::uint32_t pos = 0; pos < comp_of_[r].size(); ++pos) {
      const std::uint32_t label = comp_of_[r][pos];
      if (label != NormalizeLabels::kUngrouped) {
        prev_members_[fill[label]++] = base_[r] + pos;
      }
    }
  }
}

namespace {

struct IncrementalNormMetrics {
  obs::Counter passes{"normalize.incremental.passes"};
  obs::Counter full_passes{"normalize.incremental.full_passes"};
  obs::Counter delta_facts{"normalize.incremental.delta_facts"};
  obs::Counter dirty_components{"normalize.incremental.dirty_components"};
  obs::Counter reused_components{"normalize.incremental.reused_components"};
  obs::Counter homomorphisms{"normalize.incremental.homomorphisms"};
};

IncrementalNormMetrics& GetIncrementalNormMetrics() {
  static auto* metrics = new IncrementalNormMetrics();
  return *metrics;
}

}  // namespace

void NormalizeState::Normalize(ConcreteInstance* instance,
                               const std::vector<Conjunction>& phis,
                               NormalizeStats* stats, ResourceGuard* guard) {
  TDX_TRACE_SPAN("normalize.incremental");
  // Per-pass metrics need the pass's own stats even when the caller passed
  // none; NormalizeStats is a flat value, so the scratch copy is cheap.
  NormalizeStats scratch;
  NormalizeStats* pass_stats = stats != nullptr ? stats : &scratch;
  IncrementalNormMetrics& metrics = GetIncrementalNormMetrics();
  metrics.passes.Inc();
  if (!MatchesWatermark(*instance)) {
    metrics.full_passes.Inc();
    FullPass(instance, phis, pass_stats, guard);
  } else {
    IncrementalPass(instance, phis, pass_stats, guard);
  }
  // A partial (guard-tripped) pass leaves the stat fields untouched from
  // the caller's previous pass; publishing them would double count.
  if (!pass_stats->partial) {
    metrics.delta_facts.Inc(pass_stats->delta_facts);
    metrics.dirty_components.Inc(pass_stats->dirty_components);
    metrics.reused_components.Inc(pass_stats->reused_components);
    metrics.homomorphisms.Inc(pass_stats->homomorphisms);
  }
}

void NormalizeState::IncrementalPass(ConcreteInstance* instance,
                                     const std::vector<Conjunction>& phis,
                                     NormalizeStats* stats,
                                     ResourceGuard* guard) {
  if (guard != nullptr) {
    guard->ResetFragmentCount();
    guard->PokeFault("normalize/incremental");
    if (guard->tripped()) {
      if (stats != nullptr) stats->partial = true;
      Invalidate();
      return;
    }
  }
  const Instance& facts = instance->facts();
  const std::size_t num_rels = instance->schema().relation_count();
  base_.assign(num_rels, 0);
  std::size_t total = 0;
  std::size_t delta = 0;
  for (RelationId r = 0; r < num_rels; ++r) {
    base_[r] = total;
    const std::size_t n = facts.facts(r).size();
    total += n;
    delta += n - MarkOf(r);
  }
  if (delta == 0 && dirty_.empty()) {
    // Untouched since the last pass: the instance IS the previous output,
    // already normalized. Leave it (and the watermark) alone.
    if (stats != nullptr) {
      stats->input_facts = total;
      stats->output_facts = total;
      stats->homomorphisms = 0;
      stats->groups = 0;
      stats->delta_facts = 0;
      stats->dirty_components = 0;
      stats->reused_components = num_components_;
      stats->partial = false;
    }
    return;
  }

  const auto fact_at = [&](std::size_t id) {
    const auto it = std::upper_bound(base_.begin(), base_.end(), id);
    const RelationId r = static_cast<RelationId>(it - base_.begin() - 1);
    return facts.facts(r)[static_cast<std::uint32_t>(id - base_[r])];
  };
  // A fact is "fresh" when appended (at or past its mark) or rewritten
  // (dirty); every other fact is old, verbatim from the previous output.
  fresh_.assign(total, 0);
  for (RelationId r = 0; r < num_rels; ++r) {
    const std::size_t end = base_[r] + facts.facts(r).size();
    for (std::size_t id = base_[r] + MarkOf(r); id < end; ++id) fresh_[id] = 1;
  }
  for (const FactRef& row : dirty_) fresh_[base_[row.rel] + row.pos] = 1;

  if (finder_bound_ != &facts) {
    finder_.emplace(facts);
    finder_bound_ = &facts;
  }

  // Seeded sweep + transitive expansion. Seeding every atom of every phi*
  // over its relation's appended suffix, and at every dirty row, finds
  // exactly the homs touching a fresh fact; each OLD fact pulled into a
  // group is then expanded (all homs through it, single-fact seeds, and
  // the null clusters it belongs to), so every component containing a
  // fresh fact is discovered in full. Homs found more than once only
  // repeat a union — harmless. All-old homs never reached this way belong
  // to clean components, which provably carry one shared interval (see
  // header).
  uf_.Reset(total);
  grouped_.assign(total, 0);
  enqueued_.assign(total, 0);
  queue_.clear();
  // Previous components this pass reaches: kReached once a member joins a
  // group, kRederived once one of its rows was rewritten (below).
  constexpr char kReached = 1;
  constexpr char kRederived = 2;
  prev_touched_.assign(num_components_, 0);
  const auto push = [&](std::size_t id) {
    if (enqueued_[id] != 0) return;
    enqueued_[id] = 1;
    queue_.push_back(id);
  };
  // Groups `id` with `first`; an old fact is queued for expansion.
  const auto join = [&](std::size_t first, std::size_t id) {
    grouped_[id] = 1;
    uf_.Union(first, id);
    if (fresh_[id] != 0) return;
    push(id);
    const FactView f = fact_at(id);
    const std::uint32_t prev = comp_of_[f.relation()][f.pos()];
    if (prev != NormalizeLabels::kUngrouped && prev_touched_[prev] == 0) {
      prev_touched_[prev] = kReached;
    }
  };
  std::size_t hom_count = 0;
  bool deadline_ok = true;
  const auto on_hom = [&](const Binding&, const AtomImage& image) {
    if (guard != nullptr && !guard->CheckDeadline()) {
      deadline_ok = false;
      return false;
    }
    ++hom_count;
    if (!IntersectIntervals(image).has_value()) return true;
    const FactView front = image.front();
    const std::size_t first = base_[front.relation()] + front.pos();
    for (FactView f : image) join(first, base_[f.relation()] + f.pos());
    return true;
  };
  clusters_.Build(facts, base_);
  cluster_done_.assign(clusters_.size(), 0);
  const auto touch_clusters = [&](std::size_t id) {
    clusters_.ForEachClusterOf(id, [&](std::uint32_t c) {
      if (cluster_done_[c] != 0) return;
      cluster_done_[c] = 1;
      for (const std::size_t* m = clusters_.begin(c); m != clusters_.end(c);
           ++m) {
        join(id, *m);
      }
    });
  };

  std::vector<Conjunction> stars;
  stars.reserve(phis.size());
  for (const Conjunction& phi : phis) stars.push_back(RenameTemporalApart(phi));
  for (const Conjunction& star : stars) {
    if (!deadline_ok) break;
    for (std::size_t a = 0; a < star.atoms.size() && deadline_ok; ++a) {
      const RelationId rel = star.atoms[a].rel;
      const std::uint32_t begin = MarkOf(rel);
      const std::uint32_t end =
          static_cast<std::uint32_t>(facts.facts(rel).size());
      if (begin >= end) continue;
      finder_->ForEachSeeded(star, a, begin, end, Binding(star.num_vars),
                             on_hom);
    }
  }
  if (clusters_.size() > 0) {
    for (std::size_t id = 0; id < total; ++id) {
      if (fresh_[id] != 0) touch_clusters(id);
    }
  }
  // A rewritten row may have left its previous component and split it, so
  // that component is re-derived whole: every member is expanded, and one
  // that no group claims now comes out ungrouped, as in a full pass.
  if (!dirty_.empty()) IndexPreviousComponents();
  for (const FactRef& row : dirty_) {
    push(base_[row.rel] + row.pos);
    const std::uint32_t prev = comp_of_[row.rel][row.pos];
    if (prev == NormalizeLabels::kUngrouped ||
        prev_touched_[prev] == kRederived) {
      continue;
    }
    prev_touched_[prev] = kRederived;
    for (std::size_t k = prev_begin_[prev]; k < prev_begin_[prev + 1]; ++k) {
      if (fresh_[prev_members_[k]] == 0) push(prev_members_[k]);
    }
  }
  for (std::size_t head = 0; head < queue_.size() && deadline_ok; ++head) {
    const std::size_t id = queue_[head];
    const FactView f = fact_at(id);
    const RelationId rel = f.relation();
    const std::uint32_t pos = f.pos();
    for (const Conjunction& star : stars) {
      if (!deadline_ok) break;
      for (std::size_t a = 0; a < star.atoms.size() && deadline_ok; ++a) {
        if (star.atoms[a].rel != rel) continue;
        finder_->ForEachSeeded(star, a, pos, pos + 1, Binding(star.num_vars),
                               on_hom);
      }
    }
    touch_clusters(id);
  }
  if (!deadline_ok || (guard != nullptr && guard->tripped())) {
    if (stats != nullptr) stats->partial = true;
    Invalidate();
    return;
  }

  // Cut points per dirty component, then per-fact cut vectors — resolved
  // sequentially because Find path-compresses (the workers below must not
  // mutate the union-find).
  std::map<std::size_t, std::vector<TimePoint>> component_points;
  grouped_ids_.clear();
  for (std::size_t i = 0; i < total; ++i) {
    if (grouped_[i] == 0) continue;
    grouped_ids_.push_back(i);
    std::vector<TimePoint>& pts = component_points[uf_.Find(i)];
    const Interval iv = fact_at(i).interval();
    pts.push_back(iv.start());
    if (!iv.unbounded()) pts.push_back(iv.end());
  }
  for (auto& [root, pts] : component_points) {
    std::sort(pts.begin(), pts.end());
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  }
  cuts_of_.assign(grouped_ids_.size(), nullptr);
  frag_slots_.resize(std::max(frag_slots_.size(), grouped_ids_.size()));
  for (std::size_t k = 0; k < grouped_ids_.size(); ++k) {
    cuts_of_[k] = &component_points.at(uf_.Find(grouped_ids_[k]));
    frag_slots_[k].clear();
  }

  // Parallel fragmentation: pure per-fact work into private slots; no guard,
  // no labels, no shared mutation. The sequential merge below charges the
  // guard in dense-id order, so the charge/insert sequence — and therefore
  // the output, even under a budget trip — is identical at any job count.
  ParallelFor(jobs_, grouped_ids_.size(), [&](std::size_t k) {
    AppendFragments(fact_at(grouped_ids_[k]).interval(), *cuts_of_[k],
                    &frag_slots_[k]);
  });

  // Deterministic sequential merge. Labels are dense in first-emission
  // order, as in a full pass: a dirty component is keyed by its root, a
  // pass-through fact by its previous label. Members of a re-derived
  // previous component that no group claimed are ungrouped now.
  const std::uint32_t num_dirty =
      static_cast<std::uint32_t>(component_points.size());
  std::uint32_t touched_count = 0;
  for (const char t : prev_touched_) touched_count += t != 0 ? 1 : 0;

  Instance out(&instance->schema());
  flat_labels_.clear();
  std::map<std::size_t, std::uint32_t> dirty_seq;
  std::map<std::uint32_t, std::uint32_t> prev_remap;
  std::uint32_t next_label = 0;
  std::size_t next_grouped = 0;
  bool tripped = false;
  for (std::size_t i = 0; i < total && !tripped; ++i) {
    const FactView fact = fact_at(i);
    if (next_grouped < grouped_ids_.size() && grouped_ids_[next_grouped] == i) {
      const std::size_t k = next_grouped++;
      std::vector<Interval>& subs = frag_slots_[k];
      if (subs.empty()) {
        // The pool dropped this slot's task (thread-pool/dispatch fault).
        // The fill is a pure function of immutable inputs, so redoing it
        // inline is sound and keeps the run deterministic.
        AppendFragments(fact.interval(), *cuts_of_[k], &subs);
      }
      const std::uint32_t label =
          dirty_seq.emplace(uf_.Find(i), next_label).first->second;
      if (label == next_label) ++next_label;
      for (const Interval& sub : subs) {
        if (guard != nullptr && !guard->ChargeFragment()) {
          tripped = true;
          break;
        }
        if (out.Insert(fact.WithInterval(sub))) flat_labels_.push_back(label);
      }
    } else {
      std::uint32_t label = NormalizeLabels::kUngrouped;
      if (fresh_[i] == 0) {
        const std::uint32_t prev = comp_of_[fact.relation()][fact.pos()];
        if (prev != NormalizeLabels::kUngrouped &&
            prev_touched_[prev] != kRederived) {
          label = prev_remap.emplace(prev, next_label).first->second;
          if (label == next_label) ++next_label;
        }
      }
      if (!EmitCopy(fact, &out, guard, label, &flat_labels_)) tripped = true;
    }
  }

  const std::size_t out_size = out.size();
  // Reused = previous components no fresh fact reached (computed against
  // the PREVIOUS component count, before Record replaces the watermark).
  const std::uint32_t reused = num_components_ - touched_count;
  instance->mutable_facts() = std::move(out);
  if (tripped || (guard != nullptr && guard->tripped())) {
    if (stats != nullptr) stats->partial = true;
    Invalidate();
    return;
  }
  const std::size_t dirty_rows = dirty_.size();
  Record(*instance, flat_labels_, next_label);
  if (stats != nullptr) {
    stats->input_facts = total;
    stats->output_facts = out_size;
    stats->homomorphisms = hom_count;
    stats->groups = num_dirty;
    stats->delta_facts = delta + dirty_rows;
    stats->dirty_components = num_dirty;
    stats->reused_components = reused;
    stats->partial = false;
  }
}

}  // namespace tdx
