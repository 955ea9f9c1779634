// Incrementally maintained hash indexes over an Instance, keyed by
// (relation, set of bound attribute positions).
//
// The homomorphism engine (homomorphism.h) probes an index with the values
// an atom has already bound; the index returns candidate fact positions.
// Indexes are built on first use per (relation, position mask) and then kept
// in sync with the instance:
//
//  * Appends (Instance::Insert) leave existing fact positions stable, so a
//    probe catches an index up by hashing only the tail of facts added since
//    the last probe (AppendNewFacts) — the chase inserts between rounds and
//    the next round's probes pay O(delta), not O(instance).
//  * Mutations that move or rewrite facts (Erase, RewriteFacts, assignment)
//    bump the instance's generation; a probe that observes a new generation
//    discards every mask index and rebuilds lazily.
//
// This is what lets a HomomorphismFinder persist across chase rounds instead
// of being rebuilt per round (see chase.cc's semi-naive trigger enumeration).
//
// Layout: one MaskIndex is a flat open-addressing table of buckets (probed
// by the hash of the bound values) whose candidate runs live back-to-back in
// one contiguous slots array — no per-bucket heap nodes, no rehash of
// candidate lists. A run that outgrows its capacity relocates to the end of
// the slots array (classic doubling); the dead space left behind is tracked
// and compacted away when it dominates.
//
// Probing is approximate: candidates are bucketed by a hash of the bound
// values, and the engine re-verifies every candidate during matching, so
// hash collisions cost time but never correctness. Candidate runs preserve
// ascending fact-position order, which keeps enumeration order — and thus
// chase output — identical to a full scan filtered by the predicate.

#ifndef TDX_RELATIONAL_INDEX_H_
#define TDX_RELATIONAL_INDEX_H_

#include <compare>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/relational/instance.h"

namespace tdx {

/// Counters for index effectiveness, accumulated by the homomorphism engine
/// (and surfaced through ChaseStats / tdx_cli --stats).
struct IndexStats {
  std::uint64_t index_probes = 0;      ///< probes answered by a mask index
  std::uint64_t index_candidates = 0;  ///< candidate facts those probes returned
  std::uint64_t full_scans = 0;        ///< relation scans (nothing bound, or
                                       ///< wide-relation mask fallback)
  /// Facts hashed into a mask index: catch-up on appends plus every
  /// rebuild after a generation change. The index work a run paid for.
  std::uint64_t rows_indexed = 0;

  IndexStats& operator+=(const IndexStats& o) {
    index_probes += o.index_probes;
    index_candidates += o.index_candidates;
    full_scans += o.full_scans;
    rows_indexed += o.rows_indexed;
    return *this;
  }
};

/// One live mask index of an IndexCache: the relation, the bound-position
/// mask, and how many of the relation's facts it has hashed. A checkpoint
/// carries these so a resumed run's caches start as warm as the
/// interrupted run's were, and IndexStats::rows_indexed stays identical.
struct IndexWarmth {
  RelationId rel = 0;
  std::uint64_t mask = 0;
  std::uint32_t indexed = 0;

  friend auto operator<=>(const IndexWarmth&, const IndexWarmth&) = default;
};

/// Result of IndexCache::Probe: a run of candidate fact positions (indexes
/// into instance.facts(rel)), in ascending position order. When `covered` is
/// false the index could not answer (a bound position >= 64 does not fit the
/// mask key) and the caller must scan the full relation. The run points into
/// the cache and is valid until the next Probe.
struct CandidateRange {
  const std::uint32_t* data = nullptr;
  std::uint32_t count = 0;
  bool covered = false;

  const std::uint32_t* begin() const { return data; }
  const std::uint32_t* end() const { return data + count; }
  std::uint32_t size() const { return count; }
};

class IndexCache {
 public:
  /// `stats`, when given, accrues rows_indexed.
  explicit IndexCache(const Instance* instance, IndexStats* stats = nullptr)
      : instance_(instance),
        generation_(instance->generation()),
        stats_(stats) {}

  IndexCache(const IndexCache&) = delete;
  IndexCache& operator=(const IndexCache&) = delete;

  /// Candidate positions of facts whose arguments at `positions` hash-match
  /// `values`. `positions` must be sorted ascending and non-empty;
  /// `values[i]` corresponds to `positions[i]`.
  CandidateRange Probe(RelationId rel, const std::uint32_t* positions,
                       const Value* values, std::size_t n);

  /// Convenience overload (tests).
  CandidateRange Probe(RelationId rel,
                       const std::vector<std::uint32_t>& positions,
                       const std::vector<Value>& values) {
    assert(positions.size() == values.size());
    return Probe(rel, positions.data(), values.data(), positions.size());
  }

  /// The live mask indexes, sorted; empty when the instance's generation
  /// moved since they were built (the next probe would drop them all).
  std::vector<IndexWarmth> Warmth() const;

  /// Builds each index of `warmth` over its first `indexed` facts without
  /// counting rows_indexed, dropping whatever the cache held. Entries must
  /// name a mask within the relation's arity and at most its fact count
  /// (the checkpoint decoder validates both).
  void Rewarm(const std::vector<IndexWarmth>& warmth);

 private:
  /// One bucket: the candidate run for one bound-value hash, stored at
  /// slots[begin, begin+len) with capacity cap. cap == 0 marks an empty
  /// table entry (a real bucket always has capacity).
  struct Bucket {
    std::size_t hash = 0;
    std::uint32_t begin = 0;
    std::uint32_t len = 0;
    std::uint32_t cap = 0;
  };
  struct MaskIndex {
    std::vector<Bucket> table;  // open addressing, power-of-two size
    std::vector<std::uint32_t> slots;
    std::uint32_t used = 0;   // occupied buckets
    std::uint32_t waste = 0;  // dead slots left behind by run relocation
    // The probed positions (the expansion of the mask key), kept so the
    // catch-up path can hash new facts without re-deriving them.
    std::vector<std::uint32_t> positions;
    // Facts [0, indexed_count) are in the buckets; facts beyond are the
    // un-indexed tail appended since the last probe.
    std::uint32_t indexed_count = 0;
  };
  struct MaskKey {
    RelationId rel;
    std::uint64_t mask;
    bool operator==(const MaskKey& other) const {
      return rel == other.rel && mask == other.mask;
    }
  };
  struct MaskKeyHash {
    std::size_t operator()(const MaskKey& k) const {
      return std::hash<std::uint64_t>()((std::uint64_t{k.rel} << 32) ^ k.mask);
    }
  };

  static std::size_t HashValuesAt(FactView fact,
                                  const std::vector<std::uint32_t>& positions);
  static std::size_t HashValues(const Value* values, std::size_t n);

  /// Appends fact position `pos` to the run for `hash`, claiming a bucket /
  /// relocating the run as needed.
  static void Add(MaskIndex* index, std::size_t hash, std::uint32_t pos);
  static void GrowTable(MaskIndex* index);
  /// Sizes an index about to hash `rows` facts so the build never grows.
  static void Reserve(MaskIndex* index, std::uint32_t rows);
  static void CompactSlots(MaskIndex* index);
  static const Bucket* FindBucket(const MaskIndex& index, std::size_t hash);

  /// Hashes the facts of `rel` below `end` appended since `index` was last
  /// caught up.
  static void AppendNewFacts(const FactColumn& facts, std::uint32_t end,
                             MaskIndex* index);

  const Instance* instance_;
  std::uint64_t generation_;
  IndexStats* stats_;
  std::unordered_map<MaskKey, MaskIndex, MaskKeyHash> indexes_;
};

}  // namespace tdx

#endif  // TDX_RELATIONAL_INDEX_H_
