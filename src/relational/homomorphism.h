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
// Search is a pull cursor backtracking over atoms on an explicit frame
// stack, so it does not recurse. Each depth's atom is picked
// most-bound-first (ties broken toward the smaller relation — a cheap
// selectivity estimate), with hash-index probes (index.h) for candidate
// facts. Because the paper treats intervals as values ("intervals behave
// as constants" after normalization), temporal variables need no special
// handling here.
//
// The search is allocation-free in steady state: frames, probe keys, and
// the atom image live in per-finder scratch buffers reused across cursors,
// and the image holds FactView handles into the instance arena instead of
// copied Facts.

#ifndef TDX_RELATIONAL_HOMOMORPHISM_H_
#define TDX_RELATIONAL_HOMOMORPHISM_H_

#include <cstdint>
#include <memory>
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
/// instance's arena and valid until the cursor that produced them advances
/// or is destroyed.
using AtomImage = std::vector<FactView>;

/// View over an Instance that enumerates homomorphisms. The finder may
/// outlive instance mutations: its index cache catches up incrementally on
/// appends and rebuilds itself when the instance's generation changes
/// (erase, in-place rewrite, assignment) — see index.h. This is what lets
/// the chase keep ONE finder alive across rounds. Do not mutate the
/// instance while a cursor is open, though: the candidate lists of its
/// in-flight probes would dangle (debug builds assert this in Next()).
///
/// When `stats` is given, the finder accumulates index probe / candidate /
/// full-scan counters there (the chase engines point it at their
/// ChaseStats).
class HomomorphismFinder {
 public:
  class Cursor;

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

  /// Opens an enumeration of every homomorphism from `conj` to the instance
  /// that extends `*binding` (a fresh Binding(conj.num_vars) for no
  /// constraints). The cursor extends `*binding` in place while it is open
  /// and restores it when it is destroyed.
  Cursor Open(const Conjunction& conj, Binding* binding);

  /// Semi-naive building block: opens an enumeration of every homomorphism
  /// extending `*binding` whose image of atom `seed_atom` is one of the
  /// facts facts(conj.atoms[seed_atom].rel)[seed_begin..seed_end). Seeding
  /// each body atom with a delta range enumerates exactly the homomorphisms
  /// that touch at least one delta fact (with overlap when several atoms
  /// hit the delta; chase trigger collection deduplicates by key, so
  /// overlap costs time, never correctness).
  Cursor OpenSeeded(const Conjunction& conj, std::size_t seed_atom,
                    std::uint32_t seed_begin, std::uint32_t seed_end,
                    Binding* binding);

  /// Does any homomorphism extending `*binding` exist? One Next() on a
  /// cursor; `*binding` is restored on return.
  bool Exists(const Conjunction& conj, Binding* binding);

 private:
  /// One depth of a cursor: its atom, probe key, candidates and progress.
  struct Frame {
    std::vector<std::uint32_t> positions;  // bound positions (probe key)
    std::vector<Value> values;             // bound values (probe key)
    std::vector<VarId> newly_bound;        // vars the current match bound
    std::size_t atom = 0;
    FactColumn facts;  // the atom's relation
    // Candidates still to try: rows[next..end) when an index answered,
    // else the fact positions next..end-1 themselves.
    const std::uint32_t* rows = nullptr;
    std::uint32_t next = 0;
    std::uint32_t end = 0;
  };
  /// One open cursor's state, leased from the pool: cursors open at once on
  /// one finder get distinct scratch and close in reverse order.
  struct Scratch {
    std::vector<Frame> frames;
    std::vector<char> done;
    AtomImage image;
  };

  /// Picks the atom of depth `depth` and loads its candidates.
  void EnterFrame(const Conjunction& conj, Scratch& scratch, std::size_t depth,
                  const Binding& binding);

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

/// A pull enumeration of homomorphisms: `while (cursor.Next())`. Each Next()
/// yields the next one, with the binding extended and image() valid until
/// the following Next(). Destroying the cursor restores the binding it was
/// opened on, also mid-enumeration.
class HomomorphismFinder::Cursor {
 public:
  Cursor(const Cursor&) = delete;
  Cursor& operator=(const Cursor&) = delete;
  ~Cursor();

  /// Advances to the next homomorphism; false once there is none.
  bool Next();
  const Binding& binding() const { return *binding_; }
  const AtomImage& image() const { return scratch_->image; }

 private:
  friend class HomomorphismFinder;
  static constexpr std::size_t kUnseeded = static_cast<std::size_t>(-1);
  Cursor(HomomorphismFinder* finder, const Conjunction& conj, Binding* binding,
         std::size_t seed_atom, std::uint32_t seed_begin,
         std::uint32_t seed_end);

  HomomorphismFinder* finder_;
  const Conjunction* conj_;
  Binding* binding_;
  Scratch* scratch_ = nullptr;
  std::size_t depth_ = 0;  // frames entered
  bool trivial_ = false;   // the empty conjunction's one match is pending
  std::uint64_t generation_;
};

}  // namespace tdx

#endif  // TDX_RELATIONAL_HOMOMORPHISM_H_
