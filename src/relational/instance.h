// In-memory relational instances.
//
// An Instance is a set of facts over a Schema. Storage is columnar: each
// relation's facts live back-to-back in one contiguous Value arena (fact i
// of relation R occupies arena[i*arity, (i+1)*arity)), in insertion order
// for deterministic iteration and reproducible chase runs. Facts are handed
// out as FactView handles (fact.h) — (relation, position, argument-run)
// triples into the arena — so enumeration copies nothing.
//
// Duplicate elimination and membership tests go through a flat
// open-addressing table of (hash, relation, position) slots probed against
// the arena, replacing a node-based unordered_set of owning Facts.
//
// Instances serve as: snapshots of abstract temporal databases, concrete
// temporal instances (facts carry an interval as last argument), and the
// source/target halves of a data exchange problem.

#ifndef TDX_RELATIONAL_INSTANCE_H_
#define TDX_RELATIONAL_INSTANCE_H_

#include <algorithm>
#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/relational/fact.h"
#include "src/relational/schema.h"

namespace tdx {

/// Position of one fact inside an Instance: (relation, index into
/// facts(relation)). Valid until the instance compacts (see
/// Instance::generation).
struct FactRef {
  RelationId rel = 0;
  std::uint32_t pos = 0;

  /// Ordered by (relation, position).
  friend auto operator<=>(const FactRef&, const FactRef&) = default;
};

/// Outcome of an in-place substitution pass (Instance::RewriteFacts).
struct RewriteResult {
  std::size_t facts_rewritten = 0;   ///< facts whose arguments changed
  std::size_t values_rewritten = 0;  ///< argument slots replaced
  /// True when a rewritten fact collided with another fact and was removed:
  /// fact positions after the collision point shifted, so position-based
  /// caches (FactRef lists, mask indexes) must be rebuilt.
  bool compacted = false;
};

/// Random-access view over one relation's facts inside an Instance arena,
/// in insertion order. Iteration yields FactView handles by value.
/// Invalidated by any mutation of the instance (Insert may reallocate the
/// arena) — re-fetch via Instance::facts after mutating.
class FactColumn {
 public:
  FactColumn() = default;
  FactColumn(RelationId rel, const Value* data, std::size_t count,
             std::size_t arity)
      : data_(data), count_(count), arity_(arity), rel_(rel) {}

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  std::size_t arity() const { return arity_; }

  FactView operator[](std::size_t i) const {
    assert(i < count_);
    return FactView(rel_, static_cast<std::uint32_t>(i), data_ + i * arity_,
                    static_cast<std::uint32_t>(arity_));
  }

  class iterator {
   public:
    iterator(const FactColumn* col, std::size_t i) : col_(col), i_(i) {}
    FactView operator*() const { return (*col_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const iterator& o) const { return i_ == o.i_; }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }

   private:
    const FactColumn* col_;
    std::size_t i_;
  };
  iterator begin() const { return iterator(this, 0); }
  iterator end() const { return iterator(this, count_); }

 private:
  const Value* data_ = nullptr;
  std::size_t count_ = 0;
  std::size_t arity_ = 0;
  RelationId rel_ = 0;
};

class Instance {
 public:
  /// The schema may still grow after construction (instances are often
  /// created while a program is being parsed); per-relation storage is
  /// sized on demand.
  explicit Instance(const Schema* schema) : schema_(schema) {
    assert(schema != nullptr);
    by_rel_.resize(schema->relation_count());
  }

  Instance(const Instance&) = default;
  Instance(Instance&&) = default;
  /// Assignment replaces the contents of an instance other code may hold
  /// position-based views into (IndexCache keys candidates by fact
  /// position), so it advances the generation past both operands: any view
  /// keyed to either old generation sees a mismatch and rebuilds.
  Instance& operator=(const Instance& other) {
    if (this == &other) return *this;
    const std::uint64_t gen = std::max(generation_, other.generation_) + 1;
    schema_ = other.schema_;
    by_rel_ = other.by_rel_;
    members_ = other.members_;
    size_ = other.size_;
    tombstones_ = other.tombstones_;
    generation_ = gen;
    return *this;
  }
  Instance& operator=(Instance&& other) noexcept {
    if (this == &other) return *this;
    const std::uint64_t gen = std::max(generation_, other.generation_) + 1;
    schema_ = other.schema_;
    by_rel_ = std::move(other.by_rel_);
    members_ = std::move(other.members_);
    size_ = other.size_;
    tombstones_ = other.tombstones_;
    generation_ = gen;
    return *this;
  }

  const Schema& schema() const { return *schema_; }

  /// Mutation generation. Bumped by every operation that can invalidate a
  /// position-based view of the instance — Erase, Truncate, RewriteFacts,
  /// assignment —
  /// but NOT by Insert, which only appends (positions of existing facts are
  /// stable, so an index can catch up incrementally instead of rebuilding).
  std::uint64_t generation() const { return generation_; }

  /// Inserts a fact; returns true if newly inserted, false if duplicate.
  /// Asserts the fact's arity matches its relation's schema.
  bool Insert(const Fact& fact) {
    return InsertSpan(fact.relation(), fact.args().data(), fact.arity());
  }
  bool Insert(FactView fact) {
    return InsertSpan(fact.relation(), fact.args().data(), fact.arity());
  }

  /// Convenience: Insert(Fact(rel, args)).
  bool Insert(RelationId rel, const std::vector<Value>& args) {
    return InsertSpan(rel, args.data(), args.size());
  }

  /// Core insertion primitive: appends the argument run to the relation's
  /// arena unless an equal fact is already present. `args` may alias this
  /// instance's own arena (the run is copied out first if so).
  bool InsertSpan(RelationId rel, const Value* args, std::size_t n);

  bool Contains(const Fact& fact) const {
    return FindMember(fact.relation(), fact.args().data(), fact.arity(),
                      fact.Hash()) != kNpos;
  }
  bool Contains(FactView fact) const {
    return FindMember(fact.relation(), fact.args().data(), fact.arity(),
                      fact.Hash()) != kNpos;
  }

  /// Removes a fact; returns true if it was present. Facts after it in the
  /// same relation shift down one position (generation bumps).
  bool Erase(const Fact& fact);

  /// Removes every fact of relation r at position counts[r] or beyond,
  /// for each r < counts.size(), keeping the positions below. Bumps the
  /// generation when anything was removed (the freed positions will be
  /// reused by later inserts).
  void Truncate(const std::vector<std::uint32_t>& counts);

  /// Facts of one relation in insertion order, as a view into the arena.
  FactColumn facts(RelationId rel) const {
    assert(rel < schema_->relation_count());
    if (rel >= by_rel_.size() || by_rel_[rel].count == 0) {
      return FactColumn(rel, nullptr, 0, schema_->relation(rel).arity());
    }
    const RelationStore& store = by_rel_[rel];
    return FactColumn(rel, store.arena.data(), store.count, store.arity);
  }

  /// Applies `fn` to every fact (relation id order, then insertion order).
  /// The views passed to `fn` are invalidated when `fn` returns if it
  /// mutates any instance; do not mutate THIS instance from `fn`.
  void ForEach(const std::function<void(FactView)>& fn) const;

  /// Total number of facts.
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Returns a copy in which every occurrence of `from` (as an argument) is
  /// replaced by `to`. This is the substitution primitive of egd chase steps
  /// ("replaced everywhere", Definition 16). Duplicates created by the
  /// substitution collapse (set semantics).
  Instance ReplaceValue(const Value& from, const Value& to) const;

  /// In-place substitution primitive for egd merges: rewrites ONLY the
  /// facts at `refs`, replacing every argument that appears in `subst` with
  /// its mapped value. `refs` must cover every fact that mentions a key of
  /// `subst` (the egd fixpoint finds them through its reverse value->fact
  /// index); other facts are untouched, which is what makes this cheaper
  /// than a full rebuild when a merge touches few facts.
  ///
  /// A rewritten fact that collides with another fact is removed (set
  /// semantics); the result reports `compacted` so callers drop
  /// position-based caches. Always bumps the generation (rewritten facts
  /// hash differently, so mask indexes over them are stale either way).
  RewriteResult RewriteFacts(
      const std::vector<FactRef>& refs,
      const std::unordered_map<Value, Value, ValueHash>& subst);

  /// Set-union of two instances over the same schema.
  static Instance Union(const Instance& a, const Instance& b);

  /// True if both instances contain exactly the same facts.
  friend bool operator==(const Instance& a, const Instance& b);
  friend bool operator!=(const Instance& a, const Instance& b) {
    return !(a == b);
  }

  /// Multi-line rendering, one fact per line, deterministic order.
  std::string ToString(const Universe& u) const;

 private:
  /// One relation's columnar storage: fact i occupies
  /// arena[i*arity, (i+1)*arity).
  struct RelationStore {
    std::vector<Value> arena;
    std::uint32_t count = 0;
    std::uint32_t arity = 0;
  };

  static constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;
  static constexpr std::uint32_t kTombstone = 0xFFFFFFFEu;
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  /// One open-addressing slot of the membership table. pos doubles as the
  /// occupancy marker (kEmptySlot / kTombstone); real fact positions are
  /// bounded far below by the 32-bit arena offsets.
  struct MemberSlot {
    std::size_t hash = 0;
    RelationId rel = 0;
    std::uint32_t pos = kEmptySlot;
  };

  const Value* Row(RelationId rel, std::uint32_t pos) const {
    const RelationStore& store = by_rel_[rel];
    return store.arena.data() + std::size_t{pos} * store.arity;
  }

  /// Index of the live slot holding a fact equal to (rel, args[0..n)), or
  /// kNpos.
  std::size_t FindMember(RelationId rel, const Value* args, std::size_t n,
                         std::size_t hash) const;
  /// Marks the slot of fact (rel, pos) dead; false if absent (already
  /// erased). Probes along `hash`'s chain.
  bool EraseMemberAt(RelationId rel, std::uint32_t pos, std::size_t hash);
  /// Raw slot insert (no duplicate check; caller guarantees absence).
  void InsertMember(RelationId rel, std::uint32_t pos, std::size_t hash);
  /// Grows/rehashes so one more insert keeps the load factor under 0.7.
  void ReserveMember();
  /// Rebuilds the table from scratch hashing every arena row (used after
  /// compaction moved positions).
  void RebuildMembersFromArena();

  const Schema* schema_;
  std::vector<RelationStore> by_rel_;
  std::vector<MemberSlot> members_;  // open addressing, power-of-two size
  std::size_t size_ = 0;             // live facts
  std::size_t tombstones_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace tdx

#endif  // TDX_RELATIONAL_INSTANCE_H_
