#include "src/relational/homomorphism.h"

#include <algorithm>

namespace tdx {

std::string Conjunction::ToString(const Schema& schema,
                                  const Universe& u) const {
  std::string out;
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += " & ";
    out += schema.relation(atoms[i].rel).name;
    out += "(";
    for (std::size_t j = 0; j < atoms[i].terms.size(); ++j) {
      if (j > 0) out += ", ";
      const Term& t = atoms[i].terms[j];
      if (t.is_var()) {
        out += (t.var() < var_names.size() && !var_names[t.var()].empty())
                   ? var_names[t.var()]
                   : ("?" + std::to_string(t.var()));
      } else {
        out += u.Render(t.value());
      }
    }
    out += ")";
  }
  return out;
}

// Inline: Next() runs it once per candidate fact; as a call it cost a
// cross product ~10% of its time per match (bench_homomorphism).
inline bool HomomorphismFinder::MatchAtom(const Atom& atom, FactView fact,
                                          Binding& binding,
                                          std::vector<VarId>& newly_bound) {
  if (fact.relation() != atom.rel || fact.arity() != atom.terms.size()) {
    return false;
  }
  const std::size_t first_new = newly_bound.size();
  for (std::size_t i = 0; i < atom.terms.size(); ++i) {
    const Term& t = atom.terms[i];
    const Value& v = fact.arg(i);
    if (t.is_var()) {
      if (binding.IsBound(t.var())) {
        if (binding.Get(t.var()) != v) goto fail;
      } else {
        binding.Bind(t.var(), v);
        newly_bound.push_back(t.var());
      }
    } else if (t.value() != v) {
      goto fail;
    }
  }
  return true;
fail:
  for (std::size_t i = first_new; i < newly_bound.size(); ++i) {
    binding.Unbind(newly_bound[i]);
  }
  newly_bound.resize(first_new);
  return false;
}

void HomomorphismFinder::EnterFrame(const Conjunction& conj, Scratch& scratch,
                                    std::size_t depth,
                                    const Binding& binding) {
  // Pick the undone atom with the most bound terms (most selective first);
  // among equally-bound atoms prefer the one whose relation has fewer facts
  // (cheap selectivity estimate).
  std::size_t best = conj.atoms.size();
  std::size_t best_bound = 0;
  std::size_t best_size = 0;
  for (std::size_t i = 0; i < conj.atoms.size(); ++i) {
    if (scratch.done[i] != 0) continue;
    std::size_t bound = 0;
    for (const Term& t : conj.atoms[i].terms) {
      if (!t.is_var() || binding.IsBound(t.var())) ++bound;
    }
    const std::size_t rel_size = instance_->facts(conj.atoms[i].rel).size();
    if (best == conj.atoms.size() || bound > best_bound ||
        (bound == best_bound && rel_size < best_size)) {
      best = i;
      best_bound = bound;
      best_size = rel_size;
    }
  }
  assert(best < conj.atoms.size());
  const Atom& atom = conj.atoms[best];

  // Probe key: the atom's bound positions and their values.
  assert(depth < scratch.frames.size());
  Frame& frame = scratch.frames[depth];
  frame.positions.clear();
  frame.values.clear();
  for (std::uint32_t i = 0; i < atom.terms.size(); ++i) {
    const Term& t = atom.terms[i];
    if (!t.is_var()) {
      frame.positions.push_back(i);
      frame.values.push_back(t.value());
    } else if (binding.IsBound(t.var())) {
      frame.positions.push_back(i);
      frame.values.push_back(binding.Get(t.var()));
    }
  }
  frame.newly_bound.clear();
  frame.atom = best;
  frame.facts = instance_->facts(atom.rel);
  frame.next = 0;
  scratch.done[best] = 1;

  // Index probe on bound positions; an uncovered probe (nothing bound, or a
  // wide relation beyond the mask width) falls back to a full scan.
  CandidateRange candidates;
  if (!frame.positions.empty()) {
    candidates = cache_.Probe(atom.rel, frame.positions.data(),
                              frame.values.data(), frame.positions.size());
  }
  if (candidates.covered) {
    ++stats_->index_probes;
    stats_->index_candidates += candidates.size();
    frame.rows = candidates.data;
    frame.end = candidates.size();
  } else {
    ++stats_->full_scans;
    frame.rows = nullptr;
    frame.end = static_cast<std::uint32_t>(frame.facts.size());
  }
}

HomomorphismFinder::Cursor HomomorphismFinder::Open(const Conjunction& conj,
                                                    Binding* binding) {
  return Cursor(this, conj, binding, Cursor::kUnseeded, 0, 0);
}

HomomorphismFinder::Cursor HomomorphismFinder::OpenSeeded(
    const Conjunction& conj, std::size_t seed_atom, std::uint32_t seed_begin,
    std::uint32_t seed_end, Binding* binding) {
  assert(seed_atom < conj.atoms.size());
  return Cursor(this, conj, binding, seed_atom, seed_begin, seed_end);
}

bool HomomorphismFinder::Exists(const Conjunction& conj, Binding* binding) {
  Cursor cursor = Open(conj, binding);
  return cursor.Next();
}

HomomorphismFinder::Cursor::Cursor(HomomorphismFinder* finder,
                                   const Conjunction& conj, Binding* binding,
                                   std::size_t seed_atom,
                                   std::uint32_t seed_begin,
                                   std::uint32_t seed_end)
    : finder_(finder),
      conj_(&conj),
      binding_(binding),
      generation_(finder->instance_->generation()) {
  assert(binding->size() >= conj.num_vars);
  auto& pool = finder->scratch_pool_;
  if (finder->active_scratch_ == pool.size()) {
    pool.push_back(std::make_unique<Scratch>());
  }
  scratch_ = pool[finder->active_scratch_++].get();
  scratch_->done.assign(conj.atoms.size(), 0);
  scratch_->image.assign(conj.atoms.size(), FactView());
  if (scratch_->frames.size() < conj.atoms.size()) {
    scratch_->frames.resize(conj.atoms.size());
  }
  if (conj.atoms.empty()) {
    trivial_ = true;
    return;
  }
  depth_ = 1;
  if (seed_atom == kUnseeded) {
    finder->EnterFrame(conj, *scratch_, 0, *binding);
    return;
  }
  // The seed frame: its atom is fixed and its candidates are a row range.
  Frame& frame = scratch_->frames[0];
  frame.newly_bound.clear();
  frame.atom = seed_atom;
  frame.facts = finder->instance_->facts(conj.atoms[seed_atom].rel);
  assert(seed_end <= frame.facts.size());
  frame.rows = nullptr;
  frame.next = seed_begin;
  frame.end = seed_end;
  scratch_->done[seed_atom] = 1;
}

bool HomomorphismFinder::Cursor::Next() {
  if (depth_ == 0) {
    const bool first = trivial_;
    trivial_ = false;
    return first;
  }
  assert(finder_->instance_->generation() == generation_);
  const Conjunction& conj = *conj_;
  Binding& binding = *binding_;
  Scratch& scratch = *scratch_;
  std::size_t depth = depth_;
  // Resume at the deepest frame: undo its current match and try its next
  // candidate; an exhausted frame hands back to the one above it.
  while (depth > 0) {
    Frame& frame = scratch.frames[depth - 1];
    const Atom& atom = conj.atoms[frame.atom];
    assert(finder_->instance_->facts(atom.rel).size() == frame.facts.size());
    for (VarId v : frame.newly_bound) binding.Unbind(v);
    frame.newly_bound.clear();
    const FactColumn facts = frame.facts;
    const std::uint32_t* rows = frame.rows;
    std::uint32_t next = frame.next;
    const std::uint32_t end = frame.end;
    bool matched = false;
    while (next < end) {
      const FactView fact = facts[rows != nullptr ? rows[next] : next];
      ++next;
      if (MatchAtom(atom, fact, binding, frame.newly_bound)) {
        scratch.image[frame.atom] = fact;
        matched = true;
        break;
      }
    }
    frame.next = next;
    if (!matched) {
      scratch.done[frame.atom] = 0;
      --depth;
    } else if (depth == conj.atoms.size()) {
      break;
    } else {
      finder_->EnterFrame(conj, scratch, depth++, binding);
    }
  }
  depth_ = depth;
  return depth > 0;
}

HomomorphismFinder::Cursor::~Cursor() {
  for (; depth_ > 0; --depth_) {
    for (VarId v : scratch_->frames[depth_ - 1].newly_bound) {
      binding_->Unbind(v);
    }
  }
  assert(finder_->scratch_pool_[finder_->active_scratch_ - 1].get() ==
         scratch_);
  --finder_->active_scratch_;
}

}  // namespace tdx
