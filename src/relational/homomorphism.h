// Conjunctions of atomic formulas and the homomorphism (conjunctive-match)
// engine.
//
// A homomorphism h from a conjunction phi(x) to an instance I maps each
// variable to a value so that the image of every atom is a fact of I
// (Section 2). This single engine powers:
//
//  * chase trigger enumeration (homs from tgd/egd bodies, Sections 3, 4.3),
//  * the "no extension" check of restricted chase steps (Definition 16),
//  * the set S of Algorithm 1 (homs from phi* in N(Phi+), Section 4.2),
//  * conjunctive query evaluation and naive evaluation (Section 5),
//  * instance-level homomorphism checks (universality, Definition 3).
//
// Search is backtracking over atoms, dynamically ordered most-bound-first
// (ties broken toward the smaller relation — a cheap selectivity estimate),
// with hash-index probes (index.h) for candidate facts. Because the paper
// treats intervals as values ("intervals behave as constants" after
// normalization), temporal variables need no special handling here.
//
// The search is allocation-free in steady state: probe keys, the
// newly-bound stack, and the atom image live in per-finder scratch buffers
// reused across calls, and the image holds FactView handles into the
// instance arena instead of copied Facts.

#ifndef TDX_RELATIONAL_HOMOMORPHISM_H_
#define TDX_RELATIONAL_HOMOMORPHISM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/relational/index.h"
#include "src/relational/instance.h"

namespace tdx {

/// Dense variable id within one Conjunction/dependency/query.
using VarId = std::uint32_t;

/// A term of an atom: either a variable or a fixed value.
class Term {
 public:
  static Term Var(VarId v) { return Term(true, v, Value()); }
  static Term Val(const Value& value) { return Term(false, 0, value); }

  bool is_var() const { return is_var_; }
  VarId var() const {
    assert(is_var_);
    return var_;
  }
  const Value& value() const {
    assert(!is_var_);
    return value_;
  }

  friend bool operator==(const Term& a, const Term& b) {
    if (a.is_var_ != b.is_var_) return false;
    return a.is_var_ ? a.var_ == b.var_ : a.value_ == b.value_;
  }

 private:
  Term(bool is_var, VarId var, const Value& value)
      : is_var_(is_var), var_(var), value_(value) {}
  bool is_var_;
  VarId var_;
  Value value_;
};

/// One atomic formula R(t1, ..., tn).
struct Atom {
  RelationId rel;
  std::vector<Term> terms;
};

/// A conjunction of atoms sharing a variable namespace of size num_vars.
/// var_names is optional display metadata (parser fills it in).
struct Conjunction {
  std::vector<Atom> atoms;
  std::size_t num_vars = 0;
  std::vector<std::string> var_names;

  /// Renders e.g. "E+(n, c, t) & S+(n, s, t)".
  std::string ToString(const Schema& schema, const Universe& u) const;
};

/// A partial assignment of variables to values.
class Binding {
 public:
  explicit Binding(std::size_t num_vars)
      : values_(num_vars), bound_(num_vars, false) {}

  bool IsBound(VarId v) const { return bound_[v]; }
  const Value& Get(VarId v) const {
    assert(bound_[v]);
    return values_[v];
  }
  void Bind(VarId v, const Value& value) {
    values_[v] = value;
    bound_[v] = true;
  }
  void Unbind(VarId v) { bound_[v] = false; }
  std::size_t size() const { return values_.size(); }

 private:
  std::vector<Value> values_;
  std::vector<bool> bound_;
};

/// The image of a conjunction under a homomorphism: for each atom (by
/// position), a view of the fact it was mapped to. Views are into the
/// instance's arena and only valid during the callback.
using AtomImage = std::vector<FactView>;

/// Callback invoked per homomorphism found. Return true to continue
/// enumeration, false to stop early.
using HomCallback =
    std::function<bool(const Binding& binding, const AtomImage& image)>;

/// View over an Instance that enumerates homomorphisms. The finder may
/// outlive instance mutations: its index cache catches up incrementally on
/// appends and rebuilds itself when the instance's generation changes
/// (erase, in-place rewrite, assignment) — see index.h. This is what lets
/// the chase keep ONE finder alive across rounds. Do not mutate the
/// instance from inside an enumeration callback, though: candidate lists
/// for the in-flight probe would dangle.
///
/// When `stats` is given, the finder accumulates index probe / candidate /
/// full-scan counters there (the chase engines point it at their
/// ChaseStats).
class HomomorphismFinder {
 public:
  explicit HomomorphismFinder(const Instance& instance,
                              IndexStats* stats = nullptr)
      : instance_(&instance),
        cache_(&instance, stats != nullptr ? stats : &own_stats_),
        stats_(stats != nullptr ? stats : &own_stats_) {}

  /// The index cache's warm state, and its restore (index.h).
  std::vector<IndexWarmth> Warmth() const { return cache_.Warmth(); }
  void Rewarm(const std::vector<IndexWarmth>& warmth) {
    cache_.Rewarm(warmth);
  }

  /// Enumerates every homomorphism from `conj` to the instance extending
  /// `initial` (pass a fresh Binding(conj.num_vars) for no constraints).
  /// Returns false iff the callback stopped enumeration early.
  bool ForEach(const Conjunction& conj, Binding initial,
               const HomCallback& cb) {
    return ForEach(conj, &initial, cb);
  }

  /// In-place variant: extends `*initial` during the search and fully
  /// restores it before returning (even on early stop) — no Binding copy.
  bool ForEach(const Conjunction& conj, Binding* initial,
               const HomCallback& cb);

  /// Semi-naive building block: enumerates every homomorphism extending
  /// `initial` whose image of atom `seed_atom` is one of the facts
  /// facts(conj.atoms[seed_atom].rel)[seed_begin..seed_end). Seeding each
  /// body atom with a delta range enumerates exactly the homomorphisms that
  /// touch at least one delta fact (with overlap when several atoms hit the
  /// delta; chase trigger collection deduplicates by key, so overlap costs
  /// time, never correctness). Returns false iff the callback stopped early.
  bool ForEachSeeded(const Conjunction& conj, std::size_t seed_atom,
                     std::uint32_t seed_begin, std::uint32_t seed_end,
                     Binding initial, const HomCallback& cb) {
    return ForEachSeeded(conj, seed_atom, seed_begin, seed_end, &initial, cb);
  }

  /// In-place variant of ForEachSeeded (restores `*initial` on return).
  bool ForEachSeeded(const Conjunction& conj, std::size_t seed_atom,
                     std::uint32_t seed_begin, std::uint32_t seed_end,
                     Binding* initial, const HomCallback& cb);

  /// Does any homomorphism extending `initial` exist?
  bool Exists(const Conjunction& conj, Binding initial) {
    return Exists(conj, &initial);
  }

  /// In-place variant of Exists (restores `*initial` on return).
  bool Exists(const Conjunction& conj, Binding* initial);

  /// First homomorphism extending `initial`, if any.
  std::optional<Binding> FindFirst(const Conjunction& conj, Binding initial);

 private:
  /// Reusable per-depth search state. One Frame per recursion level; the
  /// frames vector is sized once per enumeration (to the atom count), so
  /// recursion never reallocates it under a live reference.
  struct Frame {
    std::vector<std::uint32_t> positions;  // bound positions (probe key)
    std::vector<Value> values;             // bound values (probe key)
    std::vector<VarId> newly_bound;        // vars bound at this level
  };
  struct Scratch {
    std::vector<Frame> frames;
    std::vector<char> done;
    AtomImage image;
  };
  /// RAII lease of one Scratch from the finder's pool. Nested enumerations
  /// (a callback calling back into the same finder) get distinct scratch.
  class ScratchLease {
   public:
    explicit ScratchLease(HomomorphismFinder* f) : f_(f) {
      if (f_->active_scratch_ == f_->scratch_pool_.size()) {
        f_->scratch_pool_.push_back(std::make_unique<Scratch>());
      }
      s_ = f_->scratch_pool_[f_->active_scratch_++].get();
    }
    ~ScratchLease() { --f_->active_scratch_; }
    ScratchLease(const ScratchLease&) = delete;
    ScratchLease& operator=(const ScratchLease&) = delete;
    Scratch& operator*() const { return *s_; }
    Scratch* operator->() const { return s_; }

   private:
    HomomorphismFinder* f_;
    Scratch* s_;
  };

  bool Search(const Conjunction& conj, Scratch& scratch, std::size_t depth,
              std::size_t remaining, Binding& binding, const HomCallback& cb);

  /// Attempts to match `fact` against `atom` under `binding`; on success
  /// appends newly bound vars to `newly_bound` and returns true.
  static bool MatchAtom(const Atom& atom, FactView fact, Binding& binding,
                        std::vector<VarId>& newly_bound);

  const Instance* instance_;
  IndexCache cache_;
  IndexStats own_stats_;
  IndexStats* stats_;
  std::vector<std::unique_ptr<Scratch>> scratch_pool_;
  std::size_t active_scratch_ = 0;
};

}  // namespace tdx

#endif  // TDX_RELATIONAL_HOMOMORPHISM_H_
