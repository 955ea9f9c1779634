#include "src/common/symbol_table.h"

#include <cassert>
#include <cstring>
#include <utility>

namespace tdx {

namespace {

/// Arena chunk size; a spelling over a quarter of it gets a chunk of its
/// own, so a long spelling wastes no more than a quarter of a chunk.
constexpr std::size_t kChunkBytes = 64 * 1024;

/// Multiply-xorshift hash over 8-byte words; the slot table keeps its low
/// 32 bits, which also screen key comparisons.
std::uint32_t HashText(std::string_view text) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h = text.size() * kMul;
  const char* p = text.data();
  std::size_t n = text.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * kMul;
    h ^= h >> 29;
  }
  if (n > 0) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, n);
    h = (h ^ word) * kMul;
    h ^= h >> 29;
  }
  h *= 0xbf58476d1ce4e5b9ULL;
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

}  // namespace

SymbolTable& SymbolTable::operator=(SymbolTable&& other) noexcept {
  if (this == &other) return *this;
  chunks_ = std::move(other.chunks_);
  cursor_ = std::exchange(other.cursor_, nullptr);
  left_ = std::exchange(other.left_, 0);
  spellings_ = std::move(other.spellings_);
  slots_ = std::move(other.slots_);
  other.chunks_.clear();
  other.spellings_.clear();
  other.slots_.clear();
  return *this;
}

std::size_t SymbolTable::FindSlot(std::string_view text,
                                  std::uint32_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kEmpty) return i;
    if (slot.hash == hash && spellings_[slot.id] == text) return i;
  }
}

void SymbolTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 64 : old.size() * 2, Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id == kEmpty) continue;
    std::size_t i = slot.hash & mask;
    while (slots_[i].id != kEmpty) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

std::string_view SymbolTable::Store(std::string_view text) {
  const std::size_t n = text.size();
  if (n > kChunkBytes / 4) {
    chunks_.push_back(std::make_unique<char[]>(n));
    std::memcpy(chunks_.back().get(), text.data(), n);
    return std::string_view(chunks_.back().get(), n);
  }
  if (n > left_) {
    chunks_.push_back(std::make_unique<char[]>(kChunkBytes));
    cursor_ = chunks_.back().get();
    left_ = kChunkBytes;
  }
  if (n > 0) std::memcpy(cursor_, text.data(), n);
  const std::string_view stored(cursor_, n);
  cursor_ += n;
  left_ -= n;
  return stored;
}

SymbolId SymbolTable::Intern(std::string_view text) {
  const std::uint32_t hash = HashText(text);
  if (slots_.empty()) Grow();
  std::size_t i = FindSlot(text, hash);
  if (slots_[i].id != kEmpty) return slots_[i].id;
  if (2 * (spellings_.size() + 1) > slots_.size()) {
    Grow();
    i = FindSlot(text, hash);
  }
  const SymbolId id = static_cast<SymbolId>(spellings_.size());
  spellings_.push_back(Store(text));
  slots_[i] = Slot{hash, id};
  return id;
}

bool SymbolTable::Lookup(std::string_view text, SymbolId* out) const {
  if (slots_.empty()) return false;
  const Slot& slot = slots_[FindSlot(text, HashText(text))];
  if (slot.id == kEmpty) return false;
  *out = slot.id;
  return true;
}

std::string_view SymbolTable::Spelling(SymbolId id) const {
  assert(id < spellings_.size());
  return spellings_[id];
}

}  // namespace tdx
