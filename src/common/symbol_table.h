// String interning for constants, relation names, attribute names, and
// labeled-null display names.
//
// Every constant in a tdx instance is an interned symbol: a dense uint32 id
// that maps back to its spelling. Interning makes Value a trivially copyable
// handle, makes equality and hashing O(1), and is the standard technique in
// database engines for dictionary-encoding low-cardinality string columns.
//
// A SymbolTable is append-only and owned by a Universe (see value.h); ids
// are never reused and remain valid for the table's lifetime. Ids are dense
// and handed out in order of first appearance.
//
// Layout. Spellings are copied into a chunked character arena: a chunk is
// never reallocated, so a Spelling view stays valid for the table's
// lifetime (and across a move of the table). The id of a spelling is found
// through one open-addressing table of (hash, id) slots, probed linearly;
// interning a spelling already present allocates nothing.

#ifndef TDX_COMMON_SYMBOL_TABLE_H_
#define TDX_COMMON_SYMBOL_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace tdx {

/// Dense id of an interned string.
using SymbolId = std::uint32_t;

/// Append-only string interner.
class SymbolTable {
 public:
  SymbolTable() = default;

  // The table hands out ids that index into its private storage; copying
  // would silently fork the id space, so it is move-only.
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;
  SymbolTable(SymbolTable&& other) noexcept { *this = std::move(other); }
  SymbolTable& operator=(SymbolTable&& other) noexcept;

  /// Interns `text`, returning its id (existing id if already interned).
  SymbolId Intern(std::string_view text);

  /// Looks up `text` without interning; returns false if absent.
  bool Lookup(std::string_view text, SymbolId* out) const;

  /// Spelling of an interned id. Precondition: id was returned by Intern.
  std::string_view Spelling(SymbolId id) const;

  /// Number of interned symbols.
  std::size_t size() const { return spellings_.size(); }

 private:
  /// One slot of the id table; `id == kEmpty` marks a free slot.
  struct Slot {
    std::uint32_t hash = 0;
    SymbolId id = kEmpty;
  };
  static constexpr SymbolId kEmpty = 0xFFFFFFFFu;

  /// Index of the slot holding `text`, or of the free slot where it would
  /// go. Precondition: the table has at least one free slot.
  std::size_t FindSlot(std::string_view text, std::uint32_t hash) const;
  /// Doubles the slot table (or creates it) and reinserts every id.
  void Grow();
  /// Copies `text` into the arena and returns the stable copy.
  std::string_view Store(std::string_view text);

  std::vector<std::unique_ptr<char[]>> chunks_;
  char* cursor_ = nullptr;   ///< free space in the newest chunk
  std::size_t left_ = 0;     ///< bytes free at cursor_
  std::vector<std::string_view> spellings_;  ///< by id, into chunks_
  std::vector<Slot> slots_;  ///< power-of-two size, at most half full
};

}  // namespace tdx

#endif  // TDX_COMMON_SYMBOL_TABLE_H_
