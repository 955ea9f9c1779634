#include "src/core/normalize_incremental.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/obs/trace.h"
#include "src/relational/chase.h"

namespace tdx {

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
    if (label != kUngrouped && label >= wm.num_components) {
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

void NormalizeState::Record(const ConcreteInstance& instance) {
  const Instance& facts = instance.facts();
  const std::size_t num_rels = instance.schema().relation_count();
  marks_.resize(num_rels);
  comp_of_.assign(num_rels, {});
  std::size_t off = 0;
  for (std::size_t r = 0; r < num_rels; ++r) {
    const std::size_t n = facts.facts(static_cast<RelationId>(r)).size();
    marks_[r] = static_cast<std::uint32_t>(n);
    comp_of_[r].assign(flat_labels_.begin() + off,
                       flat_labels_.begin() + off + n);
    off += n;
  }
  assert(off == flat_labels_.size() && "labels must be parallel to the output");
  num_components_ = num_labels_;
  dirty_.clear();
  bound_ = &instance.facts();
  generation_ = facts.generation();
  valid_ = true;
}

void NormalizeState::IndexPreviousComponents() {
  prev_begin_.assign(num_components_ + 1, 0);
  for (const std::vector<std::uint32_t>& labels : comp_of_) {
    for (const std::uint32_t label : labels) {
      if (label != kUngrouped) ++prev_begin_[label + 1];
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
      if (label != kUngrouped) {
        prev_members_[fill[label]++] = base_[r] + pos;
      }
    }
  }
}

void NormalizeState::Normalize(ConcreteInstance* instance,
                               const std::vector<Conjunction>& phis,
                               NormalizeStats* stats, ResourceGuard* guard) {
  TDX_TRACE_SPAN("normalize.incremental");
  if (!MatchesWatermark(*instance)) Invalidate();
  Instance out(&instance->schema());
  if (Pass(instance->facts(), phis, &out, stats, guard)) {
    instance->mutable_facts() = std::move(out);
    if (guard == nullptr || !guard->tripped()) Record(*instance);
  }
}

bool NormalizeState::Pass(const Instance& facts,
                          const std::vector<Conjunction>& phis, Instance* out,
                          NormalizeStats* stats, ResourceGuard* guard) {
  const bool watermarked = valid_;
  if (stats != nullptr) {
    stats->passes = 1;
    stats->full_passes = watermarked ? 0 : 1;
  }
  const auto trip = [&]() {
    if (stats != nullptr) stats->partial = true;
    Invalidate();
  };
  if (guard != nullptr) {
    guard->PokeFault(watermarked ? "normalize/incremental"
                                 : "normalize/algorithm1");
    if (guard->tripped()) {
      trip();
      return false;
    }
  }
  const std::size_t num_rels = facts.schema().relation_count();
  base_.assign(num_rels, 0);
  std::size_t total = 0;
  std::size_t delta = 0;
  for (RelationId r = 0; r < num_rels; ++r) {
    base_[r] = total;
    const std::size_t n = facts.facts(r).size();
    total += n;
    delta += n - MarkOf(r);
  }
  if (watermarked && delta == 0 && dirty_.empty()) {
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
    return false;
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
  // header). Without a watermark nothing is old and nothing is expanded.
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
    if (prev != kUngrouped && prev_touched_[prev] == 0) {
      prev_touched_[prev] = kReached;
    }
  };
  std::size_t hom_count = 0;
  bool deadline_ok = true;
  const auto on_hom = [&](const Binding&, const AtomImage& image) {
    // The hom sweep dominates Algorithm 1's worst case (Theorem 13), so
    // the deadline is polled here too.
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
    if (!watermarked) {
      // Every fact is fresh: one unseeded sweep finds each hom once, where
      // seeding every atom would count a k-atom hom k times.
      finder_->ForEach(star, Binding(star.num_vars), on_hom);
      continue;
    }
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
  if (!watermarked) {
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
      const std::size_t first = *clusters_.begin(c);
      for (const std::size_t* m = clusters_.begin(c); m != clusters_.end(c);
           ++m) {
        join(first, *m);
      }
    }
  } else if (clusters_.size() > 0) {
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
    if (prev == kUngrouped || prev_touched_[prev] == kRederived) continue;
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
    trip();
    return false;
  }

  // Distinct start/end points per dirty component (TP_Delta, lines 11-13).
  std::uint32_t num_dirty = 0;
  root_comp_.assign(total, kUngrouped);
  for (std::size_t i = 0; i < total; ++i) {
    if (grouped_[i] == 0) continue;
    std::uint32_t& comp = root_comp_[uf_.Find(i)];
    if (comp == kUngrouped) {
      comp = num_dirty++;
      if (comp_points_.size() < num_dirty) comp_points_.emplace_back();
      comp_points_[comp].clear();
    }
    std::vector<TimePoint>& pts = comp_points_[comp];
    const Interval iv = fact_at(i).interval();
    pts.push_back(iv.start());
    if (!iv.unbounded()) pts.push_back(iv.end());
  }
  for (std::uint32_t c = 0; c < num_dirty; ++c) {
    std::vector<TimePoint>& pts = comp_points_[c];
    std::sort(pts.begin(), pts.end());
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  }

  // Fragmentation and merge (lines 14-18), in dense-id order, admitting
  // each emitted fact against the guard's per-pass fragment budget. Labels
  // are dense in first-emission order: a dirty component is keyed by its
  // first-seen index, a pass-through fact by its previous label. Members of
  // a re-derived previous component that no group claimed are ungrouped
  // now.
  std::uint32_t touched_count = 0;
  for (const char t : prev_touched_) touched_count += t != 0 ? 1 : 0;
  dirty_label_.assign(num_dirty, kUngrouped);
  prev_label_.assign(num_components_, kUngrouped);
  const auto label_of = [&](std::uint32_t* slot) {
    if (*slot == kUngrouped) *slot = num_labels_++;
    return *slot;
  };
  flat_labels_.clear();
  num_labels_ = 0;
  std::size_t fragment_count = 0;
  const auto admit_fragment = [&]() {
    return guard == nullptr || guard->AdmitFragments(++fragment_count);
  };
  bool tripped = false;
  for (std::size_t i = 0; i < total && !tripped; ++i) {
    const FactView fact = fact_at(i);
    if (grouped_[i] != 0) {
      const std::uint32_t comp = root_comp_[uf_.Find(i)];
      frag_buf_.clear();
      AppendFragments(fact.interval(), comp_points_[comp], &frag_buf_);
      const std::uint32_t label = label_of(&dirty_label_[comp]);
      for (const Interval& sub : frag_buf_) {
        if (!admit_fragment()) {
          tripped = true;
          break;
        }
        if (out->Insert(fact.WithInterval(sub))) flat_labels_.push_back(label);
      }
    } else {
      std::uint32_t label = kUngrouped;
      if (fresh_[i] == 0) {
        const std::uint32_t prev = comp_of_[fact.relation()][fact.pos()];
        if (prev != kUngrouped && prev_touched_[prev] != kRederived) {
          label = label_of(&prev_label_[prev]);
        }
      }
      if (!admit_fragment()) {
        tripped = true;
      } else if (out->Insert(fact)) {
        flat_labels_.push_back(label);
      }
    }
  }

  if (tripped || (guard != nullptr && guard->tripped())) {
    trip();
    return true;
  }
  if (stats != nullptr) {
    stats->input_facts = total;
    stats->output_facts = out->size();
    stats->homomorphisms = hom_count;
    stats->groups = num_dirty;
    stats->delta_facts = delta + dirty_.size();
    stats->dirty_components = num_dirty;
    // Reused = previous components no fresh fact reached (against the
    // PREVIOUS component count, before Record replaces the watermark).
    stats->reused_components = num_components_ - touched_count;
    stats->partial = false;
  }
  return true;
}

}  // namespace tdx
