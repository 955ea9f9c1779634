#include "src/core/normalize_incremental.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/obs/trace.h"
#include "src/relational/chase.h"

namespace tdx {

using normalize_detail::IntersectIntervals;

namespace {

// NormalizeState::prev_touched_: a previous component this pass reached
// (one of its facts joined a group), or re-derives whole because one of
// its rows was rewritten.
constexpr char kReached = 1;
constexpr char kRederived = 2;

/// How many fragments AppendFragments cuts `iv` into at the sorted,
/// distinct `points`.
std::size_t FragmentCount(const Interval& iv,
                          const std::vector<TimePoint>& points) {
  const auto first = std::upper_bound(points.begin(), points.end(), iv.start());
  const auto last = std::lower_bound(first, points.end(), iv.end());
  return static_cast<std::size_t>(last - first) + 1;
}

}  // namespace

void NormalizeState::Invalidate() {
  valid_ = false;
  bound_ = nullptr;
  marks_.clear();
  comp_of_.clear();
  num_components_ = 0;
  dirty_.clear();
  label_rows_.clear();
  live_labels_ = 0;
  label_members_.clear();
  members_valid_ = false;
  free_labels_.clear();
  prev_touched_.clear();
  label_changed_.clear();
  nulls_.Clear();
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
  std::vector<std::uint32_t> dense(label_rows_.size(), kUngrouped);
  std::uint32_t next = 0;
  for (const std::vector<std::uint32_t>& rel_labels : comp_of_) {
    for (const std::uint32_t label : rel_labels) {
      if (label != kUngrouped && dense[label] == kUngrouped) {
        dense[label] = next++;
      }
      wm.labels.push_back(label == kUngrouped ? kUngrouped : dense[label]);
    }
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
  Invalidate();
  marks_ = wm.marks;
  dirty_ = wm.dirty;
  comp_of_.reserve(marks_.size());
  std::size_t off = 0;
  for (const std::uint32_t mark : marks_) {
    comp_of_.emplace_back(wm.labels.begin() + off,
                          wm.labels.begin() + off + mark);
    off += mark;
  }
  num_components_ = wm.num_components;
  RebuildDerived();
  nulls_.Build(facts);
  bound_ = &instance.facts();
  generation_ = facts.generation();
  valid_ = true;
  return Status::OK();
}

void NormalizeState::RebuildDerived() {
  label_rows_.assign(num_components_, 0);
  label_members_.assign(num_components_, {});
  prev_touched_.assign(num_components_, 0);
  label_changed_.assign(num_components_, 0);
  for (const std::vector<std::uint32_t>& rel_labels : comp_of_) {
    for (const std::uint32_t label : rel_labels) {
      if (label != kUngrouped) ++label_rows_[label];
    }
  }
  live_labels_ = 0;
  free_labels_.clear();
  for (std::uint32_t label = num_components_; label-- > 0;) {
    if (label_rows_[label] != 0) {
      ++live_labels_;
    } else {
      free_labels_.push_back(label);
    }
  }
}

std::vector<IndexWarmth> NormalizeState::FinderWarmth(
    const Instance* facts) const {
  if (!finder_.has_value() || finder_bound_ != facts) return {};
  return finder_->Warmth();
}

void NormalizeState::RewarmFinder(const Instance& facts,
                                  const std::vector<IndexWarmth>& warmth) {
  finder_.emplace(facts, &search_);
  finder_bound_ = &facts;
  finder_->Rewarm(warmth);
}

FactRef NormalizeState::RefAt(std::size_t id) const {
  const auto it = std::upper_bound(base_.begin(), base_.end(), id);
  const auto r = static_cast<RelationId>(it - base_.begin() - 1);
  return FactRef{r, static_cast<std::uint32_t>(id - base_[r])};
}

std::uint32_t NormalizeState::AllocateLabel() {
  if (!free_labels_.empty()) {
    const std::uint32_t label = free_labels_.back();
    free_labels_.pop_back();
    return label;
  }
  const auto label = static_cast<std::uint32_t>(label_rows_.size());
  label_rows_.push_back(0);
  label_members_.emplace_back();
  prev_touched_.push_back(0);
  label_changed_.push_back(0);
  return label;
}

void NormalizeState::Relabel(std::uint32_t from, std::uint32_t to,
                             FactRef row) {
  const auto changed = [&](std::uint32_t label) {
    if (label_changed_[label] != 0) return;
    label_changed_[label] = 1;
    changed_labels_.push_back(label);
  };
  if (from != kUngrouped) {
    if (--label_rows_[from] == 0) --live_labels_;
    changed(from);
  }
  if (to != kUngrouped) {
    if (label_rows_[to]++ == 0) ++live_labels_;
    if (members_valid_) label_members_[to].push_back(row);
    changed(to);
  }
}

const std::vector<FactRef>& NormalizeState::MembersOf(std::uint32_t label) {
  if (!members_valid_) {
    for (std::vector<FactRef>& members : label_members_) members.clear();
    for (RelationId r = 0; r < comp_of_.size(); ++r) {
      for (std::uint32_t pos = 0; pos < comp_of_[r].size(); ++pos) {
        const std::uint32_t of = comp_of_[r][pos];
        if (of != kUngrouped) label_members_[of].push_back(FactRef{r, pos});
      }
    }
    members_valid_ = true;
  }
  std::vector<FactRef>& members = label_members_[label];
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  members.erase(std::remove_if(members.begin(), members.end(),
                               [&](const FactRef& row) {
                                 return row.rel >= comp_of_.size() ||
                                        row.pos >= comp_of_[row.rel].size() ||
                                        comp_of_[row.rel][row.pos] != label;
                               }),
                members.end());
  return members;
}

NormalizeState::NullRuns& NormalizeState::RunsOf(const Instance& facts,
                                                 NullId null) {
  auto [it, inserted] = runs_.try_emplace(null);
  NullRuns& runs = it->second;
  if (!inserted) return runs;
  nulls_.RowsOf(facts, null, &null_rows_);
  SweepRuns(facts, null_rows_, &runs);
  return runs;
}

void NormalizeState::SweepRuns(const Instance& facts,
                               const std::vector<FactRef>& rows,
                               NullRuns* out) {
  NullRuns& runs = *out;
  runs.members.clear();
  runs.run_of.clear();
  runs.begin.assign(1, 0);
  runs.done.clear();
  rows_visited_ += rows.size();
  if (rows.size() < 2) return;  // a lone fact forms no cluster
  std::vector<Occ>& occ = occ_;
  occ.clear();
  for (const FactRef& row : rows) {
    const Interval iv = facts.facts(row.rel)[row.pos].interval();
    occ.push_back({iv.start(), iv.end(), base_[row.rel] + row.pos});
  }
  std::sort(occ.begin(), occ.end(), [](const Occ& a, const Occ& b) {
    return a.start != b.start ? a.start < b.start : a.id < b.id;
  });
  std::size_t i = 0;
  while (i < occ.size()) {
    std::size_t j = i + 1;
    TimePoint reach = occ[i].end;
    while (j < occ.size() && occ[j].start < reach) {
      reach = std::max(reach, occ[j].end);
      ++j;
    }
    if (j - i >= 2) {
      const auto run = static_cast<std::uint32_t>(runs.begin.size() - 1);
      for (std::size_t k = i; k < j; ++k) {
        runs.members.push_back(occ[k].id);
        runs.run_of.emplace_back(occ[k].id, run);
      }
      runs.begin.push_back(static_cast<std::uint32_t>(runs.members.size()));
    }
    i = j;
  }
  std::sort(runs.run_of.begin(), runs.run_of.end());
  runs.done.assign(runs.begin.size() - 1, 0);
}

void NormalizeState::ResetScratch() {
  for (const std::size_t id : fresh_ids_) fresh_[id] = 0;
  for (const std::size_t id : grouped_ids_) {
    grouped_[id] = 0;
    root_comp_[id] = kUngrouped;
    uf_.Reset(id);
  }
  for (const std::size_t id : queue_) enqueued_[id] = 0;
  for (const std::uint32_t label : touched_labels_) {
    if (label < prev_touched_.size()) prev_touched_[label] = 0;
  }
  for (const std::uint32_t label : changed_labels_) {
    if (label < label_changed_.size()) label_changed_[label] = 0;
  }
  fresh_ids_.clear();
  grouped_ids_.clear();
  queue_.clear();
  touched_labels_.clear();
  changed_labels_.clear();
  runs_.clear();
}

void NormalizeState::Normalize(ConcreteInstance* instance,
                               const std::vector<Conjunction>& phis,
                               NormalizeStats* stats, ResourceGuard* guard) {
  TDX_TRACE_SPAN("normalize.incremental");
  if (!MatchesWatermark(*instance)) Invalidate();
  Pass(&instance->mutable_facts(), phis, stats, guard);
}

void NormalizeState::Pass(Instance* target,
                          const std::vector<Conjunction>& phis,
                          NormalizeStats* stats, ResourceGuard* guard) {
  Instance& facts = *target;
  const bool watermarked = valid_;
  if (stats != nullptr) {
    stats->passes = 1;
    stats->full_passes = watermarked ? 0 : 1;
  }
  const auto trip = [&]() {
    ResetScratch();
    if (stats != nullptr) stats->partial = true;
    Invalidate();
  };
  if (guard != nullptr) {
    guard->PokeFault(watermarked ? "normalize/incremental"
                                 : "normalize/algorithm1");
    if (guard->tripped()) {
      trip();
      return;
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
      stats->rows_visited = 0;
      stats->partial = false;
    }
    return;
  }
  rows_visited_ = 0;
  comp_of_.resize(num_rels);
  if (fresh_.size() < total) {
    fresh_.resize(total, 0);
    grouped_.resize(total, 0);
    enqueued_.resize(total, 0);
    root_comp_.resize(total, kUngrouped);
  }
  uf_.Grow(total);

  // A fact is "fresh" when appended (at or past its mark) or rewritten
  // (dirty); every other fact is old, verbatim from the previous output.
  if (!watermarked) {
    nulls_.Build(facts);
  } else {
    nulls_.AbsorbAppends(facts);
  }
  for (RelationId r = 0; r < num_rels; ++r) {
    const std::size_t end = base_[r] + facts.facts(r).size();
    for (std::size_t id = base_[r] + MarkOf(r); id < end; ++id) {
      fresh_[id] = 1;
      fresh_ids_.push_back(id);
    }
  }
  for (const FactRef& row : dirty_) {
    nulls_.AddRow(facts, row.rel, row.pos);
    const std::size_t id = base_[row.rel] + row.pos;
    fresh_[id] = 1;
    fresh_ids_.push_back(id);
  }
  rows_visited_ += fresh_ids_.size();

  if (finder_bound_ != &facts) {
    finder_.emplace(facts, &search_);
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
  const auto push = [&](std::size_t id) {
    if (enqueued_[id] != 0) return;
    enqueued_[id] = 1;
    queue_.push_back(id);
  };
  // Groups `id` with `first`; an old fact is queued for expansion.
  const auto join = [&](std::size_t first, std::size_t id) {
    if (grouped_[id] == 0) {
      grouped_[id] = 1;
      grouped_ids_.push_back(id);
    }
    uf_.Union(first, id);
    if (fresh_[id] != 0) return;
    push(id);
    const FactRef row = RefAt(id);
    const std::uint32_t prev = comp_of_[row.rel][row.pos];
    if (prev != kUngrouped && prev_touched_[prev] == 0) {
      prev_touched_[prev] = kReached;
      touched_labels_.push_back(prev);
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
  // Joins `id` with every fact of each null cluster it belongs to.
  const auto touch_clusters = [&](std::size_t id) {
    const FactRef row = RefAt(id);
    const FactView fact = facts.facts(row.rel)[row.pos];
    for (const Value& v : fact.args()) {
      if (!v.is_annotated_null()) continue;
      NullRuns& runs = RunsOf(facts, v.null_id());
      const auto it = std::lower_bound(
          runs.run_of.begin(), runs.run_of.end(),
          std::pair<std::size_t, std::uint32_t>(id, 0));
      if (it == runs.run_of.end() || it->first != id) continue;
      const std::uint32_t run = it->second;
      if (runs.done[run] != 0) continue;
      runs.done[run] = 1;
      for (std::uint32_t k = runs.begin[run]; k < runs.begin[run + 1]; ++k) {
        join(id, runs.members[k]);
      }
    }
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
    // Every cluster joins whole.
    NullRuns runs;
    nulls_.ForEachNull(facts, [&](const std::vector<FactRef>& rows) {
      SweepRuns(facts, rows, &runs);
      for (std::size_t run = 0; run + 1 < runs.begin.size(); ++run) {
        const std::size_t first = runs.members[runs.begin[run]];
        for (std::uint32_t k = runs.begin[run]; k < runs.begin[run + 1];
             ++k) {
          join(first, runs.members[k]);
        }
      }
    });
  } else {
    for (const std::size_t id : fresh_ids_) touch_clusters(id);
  }
  // A rewritten row may have left its previous component and split it, so
  // that component is re-derived whole: every member is expanded, and one
  // that no group claims now comes out ungrouped, as in a full pass.
  for (const FactRef& row : dirty_) {
    push(base_[row.rel] + row.pos);
    const std::uint32_t prev = comp_of_[row.rel][row.pos];
    if (prev == kUngrouped || prev_touched_[prev] == kRederived) continue;
    if (prev_touched_[prev] == 0) touched_labels_.push_back(prev);
    prev_touched_[prev] = kRederived;
    const std::vector<FactRef>& members = MembersOf(prev);
    rows_visited_ += members.size();
    for (const FactRef& m : members) {
      const std::size_t id = base_[m.rel] + m.pos;
      if (fresh_[id] == 0) push(id);
    }
  }
  for (std::size_t head = 0; head < queue_.size() && deadline_ok; ++head) {
    const std::size_t id = queue_[head];
    const FactRef row = RefAt(id);
    for (const Conjunction& star : stars) {
      if (!deadline_ok) break;
      for (std::size_t a = 0; a < star.atoms.size() && deadline_ok; ++a) {
        if (star.atoms[a].rel != row.rel) continue;
        finder_->ForEachSeeded(star, a, row.pos, row.pos + 1,
                               Binding(star.num_vars), on_hom);
      }
    }
    touch_clusters(id);
  }
  rows_visited_ += queue_.size();
  if (!deadline_ok || (guard != nullptr && guard->tripped())) {
    trip();
    return;
  }

  // Distinct start/end points per dirty component (TP_Delta, lines 11-13),
  // numbered in dense-id order of their first fact.
  std::sort(grouped_ids_.begin(), grouped_ids_.end());
  rows_visited_ += grouped_ids_.size();
  std::uint32_t num_dirty = 0;
  grouped_rows_.clear();
  grouped_comp_.clear();
  RelationId rel = 0;
  for (const std::size_t id : grouped_ids_) {
    while (rel + 1 < num_rels && base_[rel + 1] <= id) ++rel;
    std::uint32_t& comp = root_comp_[uf_.Find(id)];
    if (comp == kUngrouped) {
      comp = num_dirty++;
      if (comp_points_.size() < num_dirty) comp_points_.emplace_back();
      comp_points_[comp].clear();
    }
    const FactRef row{rel, static_cast<std::uint32_t>(id - base_[rel])};
    grouped_rows_.push_back(row);
    grouped_comp_.push_back(comp);
    std::vector<TimePoint>& pts = comp_points_[comp];
    const Interval iv = facts.facts(rel)[row.pos].interval();
    pts.push_back(iv.start());
    if (!iv.unbounded()) pts.push_back(iv.end());
  }
  for (std::uint32_t c = 0; c < num_dirty; ++c) {
    std::vector<TimePoint>& pts = comp_points_[c];
    std::sort(pts.begin(), pts.end());
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  }

  // Fragmentation (lines 14-18). A relation's rows stay put up to its first
  // grouped row that splits; from there on its tail is re-emitted. A row
  // cut into one fragment is emitted as itself: a concrete fact's nulls
  // carry its own interval (ConcreteInstance::Validate), so restamping
  // changes nothing. Every emitted fragment, pass-through rows included, counts
  // against the guard's per-pass fragment budget, admitted before any row
  // changes.
  tail_begin_.resize(num_rels);
  for (RelationId r = 0; r < num_rels; ++r) {
    tail_begin_[r] = static_cast<std::uint32_t>(facts.facts(r).size());
  }
  std::size_t fragment_count = total;
  for (std::size_t k = 0; k < grouped_rows_.size(); ++k) {
    const FactRef row = grouped_rows_[k];
    const FactView fact = facts.facts(row.rel)[row.pos];
    const std::size_t fragments =
        FragmentCount(fact.interval(), comp_points_[grouped_comp_[k]]);
    fragment_count += fragments - 1;
    if (row.pos < tail_begin_[row.rel] && fragments > 1) {
      tail_begin_[row.rel] = row.pos;
    }
  }
  if (guard != nullptr && !guard->AdmitFragments(fragment_count)) {
    trip();
    return;
  }

  // The next watermark's component count, as a pass emitting into an empty
  // instance counts labels: every dirty component, plus every previous
  // component that still holds a pass-through fact — the untouched ones
  // with rows, and reached ones some of whose facts stayed ungrouped.
  std::size_t reached_keep_label = 0;
  for (const std::uint32_t label : touched_labels_) {
    if (prev_touched_[label] != kReached) continue;
    const std::vector<FactRef>& members = MembersOf(label);
    rows_visited_ += members.size();
    std::size_t grouped_members = 0;
    for (const FactRef& m : members) {
      grouped_members += grouped_[base_[m.rel] + m.pos] != 0 ? 1 : 0;
    }
    if (grouped_members < members.size()) ++reached_keep_label;
  }
  const std::size_t next_components = num_dirty + live_labels_ -
                                      touched_labels_.size() +
                                      reached_keep_label;
  if (stats != nullptr) {
    stats->input_facts = total;
    stats->homomorphisms = hom_count;
    stats->groups = num_dirty;
    stats->delta_facts = delta + dirty_.size();
    stats->dirty_components = num_dirty;
    // Reused = previous components no fresh fact reached.
    stats->reused_components = num_components_ - touched_labels_.size();
    stats->partial = false;
  }
  dirty_label_.resize(num_dirty);
  const std::size_t labels = label_rows_.size() + num_dirty;
  label_rows_.reserve(labels);
  label_members_.reserve(labels);
  prev_touched_.reserve(labels);
  label_changed_.reserve(labels);
  for (std::uint32_t c = 0; c < num_dirty; ++c) {
    dirty_label_[c] = AllocateLabel();
  }

  // Relabel the rows that stay put: appended rows start ungrouped, grouped
  // rows take their dirty component's label, and the other members of a
  // re-derived component come out ungrouped.
  for (RelationId r = 0; r < num_rels; ++r) {
    comp_of_[r].resize(facts.facts(r).size(), kUngrouped);
  }
  for (std::size_t k = 0; k < grouped_rows_.size(); ++k) {
    const FactRef row = grouped_rows_[k];
    if (row.pos >= tail_begin_[row.rel]) continue;
    std::uint32_t& label = comp_of_[row.rel][row.pos];
    const std::uint32_t next = dirty_label_[grouped_comp_[k]];
    Relabel(label, next, row);
    label = next;
  }
  for (const std::uint32_t prev : touched_labels_) {
    if (prev_touched_[prev] != kRederived) continue;
    for (const FactRef& m : label_members_[prev]) {
      if (m.pos >= tail_begin_[m.rel] ||
          grouped_[base_[m.rel] + m.pos] != 0) {
        continue;
      }
      Relabel(prev, kUngrouped, m);
      comp_of_[m.rel][m.pos] = kUngrouped;
    }
  }

  // Re-emit each changed tail in the order a fresh emission would: per
  // row, its fragments, deduplicated against everything before them. The
  // tails are read out first, then cut off together, then re-emitted.
  tail_values_.clear();
  tail_rows_.clear();
  tail_spans_.clear();
  for (RelationId r = 0; r < num_rels; ++r) {
    const FactColumn column = facts.facts(r);
    const std::uint32_t begin = tail_begin_[r];
    const auto end = static_cast<std::uint32_t>(column.size());
    if (begin >= end) continue;
    tail_spans_.push_back(TailSpan{r, begin, tail_rows_.size(),
                                   tail_values_.size(),
                                   static_cast<std::uint32_t>(column.arity())});
    // The tail's grouped rows, in position order.
    std::size_t next_grouped = static_cast<std::size_t>(
        std::lower_bound(grouped_rows_.begin(), grouped_rows_.end(),
                         FactRef{r, begin}) -
        grouped_rows_.begin());
    for (std::uint32_t pos = begin; pos < end; ++pos) {
      const FactView fact = column[pos];
      tail_values_.insert(tail_values_.end(), fact.args().begin(),
                          fact.args().end());
      const std::size_t id = base_[r] + pos;
      TailRow tail{comp_of_[r][pos], kUngrouped, kUngrouped};
      if (grouped_[id] != 0) {
        tail.comp = grouped_comp_[next_grouped++];
        tail.new_label = dirty_label_[tail.comp];
      } else if (fresh_[id] == 0 && tail.old_label != kUngrouped &&
                 prev_touched_[tail.old_label] != kRederived) {
        tail.new_label = tail.old_label;
      }
      Relabel(tail.old_label, kUngrouped, FactRef{});
      tail_rows_.push_back(tail);
    }
    comp_of_[r].resize(begin);
  }
  rows_visited_ += tail_rows_.size();
  if (!tail_spans_.empty()) {
    TDX_TRACE_SPAN("normalize.rewrite_tail");
    facts.Truncate(tail_begin_);
    for (std::size_t s = 0; s < tail_spans_.size(); ++s) {
      const TailSpan& span = tail_spans_[s];
      const RelationId r = span.rel;
      const std::size_t rows_end = s + 1 < tail_spans_.size()
                                       ? tail_spans_[s + 1].first_row
                                       : tail_rows_.size();
      const auto emit = [&](const Value* args, std::uint32_t label) {
        if (!facts.InsertSpan(r, args, span.arity)) return;
        const auto pos = static_cast<std::uint32_t>(comp_of_[r].size());
        comp_of_[r].push_back(label);
        Relabel(kUngrouped, label, FactRef{r, pos});
        ++rows_visited_;
      };
      for (std::size_t k = span.first_row; k < rows_end; ++k) {
        const TailRow& tail = tail_rows_[k];
        const Value* args =
            tail_values_.data() + span.first_value +
            (k - span.first_row) * std::size_t{span.arity};
        if (tail.comp == kUngrouped) {
          emit(args, tail.new_label);
          continue;
        }
        // Each fragment as FactView::WithInterval spells it, built in
        // place: nulls re-annotated, the interval restamped.
        const Value* interval = args + span.arity - 1;
        frag_buf_.clear();
        AppendFragments(interval->interval(), comp_points_[tail.comp],
                        &frag_buf_);
        frag_args_.assign(args, args + span.arity);
        for (const Interval& sub : frag_buf_) {
          for (std::size_t i = 0; i + 1 < span.arity; ++i) {
            if (args[i].is_annotated_null()) {
              frag_args_[i] = args[i].Reannotated(sub);
            }
          }
          frag_args_.back() = Value::OfInterval(sub);
          emit(frag_args_.data(), tail.new_label);
        }
      }
      nulls_.Rewind(r, span.begin);
    }
  }

  // Labels left without rows become reusable.
  for (const std::uint32_t label : changed_labels_) {
    label_changed_[label] = 0;
    if (label_rows_[label] == 0) {
      label_members_[label].clear();
      free_labels_.push_back(label);
    }
  }
  changed_labels_.clear();

  marks_.resize(num_rels);
  for (RelationId r = 0; r < num_rels; ++r) {
    marks_[r] = static_cast<std::uint32_t>(facts.facts(r).size());
  }
  num_components_ = static_cast<std::uint32_t>(next_components);
  dirty_.clear();
  bound_ = &facts;
  generation_ = facts.generation();
  valid_ = true;
  if (stats != nullptr) {
    stats->output_facts = facts.size();
    stats->rows_visited = rows_visited_;
  }
  ResetScratch();
}

}  // namespace tdx
