// Values: constants, labeled nulls, interval-annotated nulls, and intervals.
//
// The paper's data model needs four kinds of values:
//
//  * Constants (Section 2) — ordinary data values such as "Ada" or "18k".
//  * Labeled nulls (Section 2) — the unknowns of classical data exchange;
//    they appear in snapshots of abstract target instances.
//  * Interval-annotated nulls (Section 4.1) — `N^[s,e)`, a labeled null N
//    annotated with the time interval of the concrete fact it occurs in. An
//    annotated null is a *compact representation of a sequence* of distinct
//    labeled nulls <N_s, ..., N_{e-1}>, one per snapshot. Projection on a
//    time point, `proj_l(N^[s,e)) = N_l`, selects one element.
//  * Intervals — the paper treats the temporal attribute T of a concrete
//    relation R+ as an ordinary attribute whose domain is time intervals
//    ("time intervals behave as constants", Section 4.2). Making Interval a
//    Value kind lets the one homomorphism engine handle concrete schemas,
//    temporal variables t, and interval constants uniformly.
//
// A Value is a small trivially copyable handle; identity of constants and
// null spellings lives in a Universe, which also implements null projection
// (memoized so proj_l(N^[s,e)) is deterministic — crucial for the semantics
// function [[.]] in temporal/snapshot.h).
//
// Identity of an annotated null is the pair (null id, annotation interval).
// Fragmentation (Section 4.2) re-annotates a null with a sub-interval while
// keeping the null id, so the fragments still project onto the *same*
// underlying sequence <N_s, ...> — exactly the paper's convention that
// fragmenting a fact containing N^[s1,e1) yields facts containing
// N^[s1,s2) and N^[s2,e1).

#ifndef TDX_COMMON_VALUE_H_
#define TDX_COMMON_VALUE_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/interval.h"
#include "src/common/symbol_table.h"

namespace tdx {

/// Dense id of a labeled null within a Universe.
using NullId = std::uint64_t;

enum class ValueKind : std::uint8_t {
  kConstant = 0,       ///< interned constant
  kNull = 1,           ///< labeled null (abstract view)
  kAnnotatedNull = 2,  ///< interval-annotated null N^[s,e) (concrete view)
  kInterval = 3,       ///< a time interval used as a value (attribute T)
};

/// A tagged, trivially copyable value handle. See file comment.
///
/// Layout (24 bytes): one 64-bit word holds the kind in its top two bits
/// and the symbol or null id below them, and the 16-byte interval payload
/// follows inline. Constants and labeled nulls carry the fixed payload
/// [0, 1) and interval values the id 0, so the word and the payload
/// together are the value's identity: equality compares both, and the
/// canonical order compares the word (kind, then id) before the payload.
///
/// Ids stay below 2^62 on every input: symbol ids are 32-bit,
/// Universe::FreshNull counts up from 0, and the tdxckpt decoder
/// (src/parser/serialize.cc) refuses a null id at or above its `nulls`
/// count, which is at most the checkpoint body's bytes / 10.
class Value {
 public:
  /// Default: the constant with symbol id 0 (rarely meaningful; present so
  /// Value is usable in containers). Prefer the factories on Universe.
  Value() : word_(0), iv_(0, 1) {}

  static Value Constant(SymbolId sym) {
    return Value(ValueKind::kConstant, sym, Interval(0, 1));
  }
  static Value Null(NullId id) {
    return Value(ValueKind::kNull, id, Interval(0, 1));
  }
  static Value AnnotatedNull(NullId id, const Interval& annotation) {
    return Value(ValueKind::kAnnotatedNull, id, annotation);
  }
  static Value OfInterval(const Interval& iv) {
    return Value(ValueKind::kInterval, 0, iv);
  }

  /// Ids must stay below this bound: the kind takes the top two bits.
  static constexpr std::uint64_t kIdLimit = std::uint64_t{1} << 62;

  ValueKind kind() const { return static_cast<ValueKind>(word_ >> 62); }
  bool is_constant() const { return kind() == ValueKind::kConstant; }
  bool is_null() const { return kind() == ValueKind::kNull; }
  bool is_annotated_null() const { return kind() == ValueKind::kAnnotatedNull; }
  bool is_interval() const { return kind() == ValueKind::kInterval; }
  /// Any kind of unknown (labeled or annotated).
  bool is_any_null() const { return is_null() || is_annotated_null(); }

  /// Symbol id; valid only for constants.
  SymbolId symbol() const {
    assert(is_constant());
    return static_cast<SymbolId>(word_);
  }
  /// Null id; valid for labeled and annotated nulls.
  NullId null_id() const {
    assert(is_any_null());
    return word_ & (kIdLimit - 1);
  }
  /// Interval payload; valid for annotated nulls (the annotation) and
  /// interval values.
  const Interval& interval() const {
    assert(is_annotated_null() || is_interval());
    return iv_;
  }

  /// Same null id, different annotation. Valid only for annotated nulls.
  Value Reannotated(const Interval& annotation) const {
    assert(is_annotated_null());
    Value v = *this;
    v.iv_ = annotation;
    return v;
  }

  friend bool operator==(const Value& a, const Value& b) {
    return a.word_ == b.word_ && a.iv_ == b.iv_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  /// Canonical total order by (kind, id, interval); used for deterministic
  /// iteration (the chase fires triggers in canonical order).
  friend bool operator<(const Value& a, const Value& b) {
    if (a.word_ != b.word_) return a.word_ < b.word_;
    return a.iv_ < b.iv_;
  }

  std::size_t Hash() const {
    const ValueKind k = kind();
    const std::uint64_t id = word_ & (kIdLimit - 1);
    std::size_t h = std::hash<std::uint8_t>()(static_cast<std::uint8_t>(k));
    auto mix = [&h](std::size_t v) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    switch (k) {
      case ValueKind::kConstant:
      case ValueKind::kNull:
        mix(std::hash<std::uint64_t>()(id));
        break;
      case ValueKind::kAnnotatedNull:
        mix(std::hash<std::uint64_t>()(id));
        mix(IntervalHash()(iv_));
        break;
      case ValueKind::kInterval:
        mix(IntervalHash()(iv_));
        break;
    }
    return h;
  }

 private:
  Value(ValueKind kind, std::uint64_t id, const Interval& iv)
      : word_((static_cast<std::uint64_t>(kind) << 62) | id), iv_(iv) {
    assert(id < kIdLimit && "value id collides with the kind bits");
  }

  std::uint64_t word_;  ///< kind << 62 | id
  Interval iv_;
};

static_assert(sizeof(Value) == 24, "Value is one id word plus an Interval");

struct ValueHash {
  std::size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Owner of value identity: the constant symbol table, the labeled-null
/// namespace, and the memoized projection of annotated nulls onto snapshots.
///
/// All instances, dependencies, and queries that interact must share one
/// Universe (they are compared by interned ids).
class Universe {
 public:
  Universe() = default;
  Universe(const Universe&) = delete;
  Universe& operator=(const Universe&) = delete;
  Universe(Universe&&) = default;
  Universe& operator=(Universe&&) = default;

  /// Interns a constant.
  Value Constant(std::string_view spelling) {
    return Value::Constant(symbols_.Intern(spelling));
  }

  /// Fresh labeled null with an auto-generated display name "N<k>".
  Value FreshNull() { return FreshNull(""); }

  /// Fresh labeled null; if `name` is empty an "N<k>" name is generated.
  Value FreshNull(std::string_view name);

  /// Fresh interval-annotated null with the given annotation.
  Value FreshAnnotatedNull(const Interval& annotation) {
    return FreshAnnotatedNull("", annotation);
  }
  Value FreshAnnotatedNull(std::string_view name, const Interval& annotation);

  /// proj_l(N^[s,e)) = N_l: the labeled null at snapshot l of the sequence
  /// represented by an annotated null (Section 4.1). Memoized: repeated
  /// calls with the same (null id, l) return the same labeled null, and the
  /// annotation interval does not participate (fragments of one null project
  /// consistently). Precondition: annotation contains l.
  Value ProjectNull(const Value& annotated, TimePoint l);

  /// Human-readable rendering: constants by spelling, nulls by display name,
  /// annotated nulls as "N^[s, e)", intervals as "[s, e)".
  std::string Render(const Value& v) const;

  /// Appends Render(v) to *out, building no temporary string.
  void AppendRendered(const Value& v, std::string* out) const;

  /// Number of labeled nulls allocated so far.
  NullId null_count() const { return next_null_; }

  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }

  /// Display name of a null id (for rendering and tests).
  std::string_view NullName(NullId id) const;

  /// Restores the labeled-null namespace to a checkpointed state: the next
  /// fresh null gets id `next_null`, and ids below it render with the given
  /// names. Also clears the projection memo (projection ids minted after
  /// the checkpoint would collide with nulls the resumed chase re-mints).
  /// Only the chase engines call this, on resume; they own the null
  /// namespace for the duration of a run.
  void RestoreNullState(NullId next_null, std::vector<std::string> names);

 private:
  SymbolTable symbols_;
  NullId next_null_ = 0;
  std::vector<std::string> null_names_;

  struct PairHash {
    std::size_t operator()(const std::pair<NullId, TimePoint>& p) const {
      std::size_t h = std::hash<NullId>()(p.first);
      h ^= std::hash<TimePoint>()(p.second) + 0x9e3779b97f4a7c15ULL +
           (h << 6) + (h >> 2);
      return h;
    }
  };
  std::unordered_map<std::pair<NullId, TimePoint>, NullId, PairHash>
      projections_;
};

}  // namespace tdx

#endif  // TDX_COMMON_VALUE_H_
