#include "src/relational/index.h"

#include <algorithm>

namespace tdx {

std::size_t IndexCache::HashValuesAt(
    FactView fact, const std::vector<std::uint32_t>& positions) {
  std::size_t h = 0;
  for (std::uint32_t pos : positions) {
    h ^= fact.arg(pos).Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

std::size_t IndexCache::HashValues(const Value* values, std::size_t n) {
  std::size_t h = 0;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= values[i].Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

void IndexCache::GrowTable(MaskIndex* index) {
  std::vector<Bucket> old = std::move(index->table);
  index->table.assign(old.size() * 2, Bucket{});
  const std::size_t mask = index->table.size() - 1;
  for (const Bucket& b : old) {
    if (b.cap == 0) continue;
    std::size_t i = b.hash & mask;
    while (index->table[i].cap != 0) i = (i + 1) & mask;
    index->table[i] = b;
  }
}

void IndexCache::CompactSlots(MaskIndex* index) {
  // Rewrite every run back-to-back; runs keep their internal (ascending
  // position) order, so probe results are unchanged. Round capacities up to
  // a power of two so the next few appends don't immediately relocate.
  std::vector<std::uint32_t> fresh;
  fresh.reserve(index->slots.size() - index->waste);
  for (Bucket& b : index->table) {
    if (b.cap == 0) continue;
    std::uint32_t cap = 4;
    while (cap < b.len) cap <<= 1;
    const std::uint32_t begin = static_cast<std::uint32_t>(fresh.size());
    fresh.resize(fresh.size() + cap);
    std::copy(index->slots.begin() + b.begin,
              index->slots.begin() + b.begin + b.len, fresh.begin() + begin);
    b.begin = begin;
    b.cap = cap;
  }
  index->slots = std::move(fresh);
  index->waste = 0;
}

void IndexCache::Add(MaskIndex* index, std::size_t hash, std::uint32_t pos) {
  if (index->table.empty()) {
    index->table.assign(16, Bucket{});
  } else if ((std::size_t{index->used} + 1) * 4 > index->table.size() * 3) {
    GrowTable(index);
  }
  const std::size_t mask = index->table.size() - 1;
  std::size_t i = hash & mask;
  while (index->table[i].cap != 0 && index->table[i].hash != hash) {
    i = (i + 1) & mask;
  }
  Bucket& b = index->table[i];
  if (b.cap == 0) {
    b.hash = hash;
    b.begin = static_cast<std::uint32_t>(index->slots.size());
    b.len = 0;
    b.cap = 4;
    index->slots.resize(index->slots.size() + b.cap);
    ++index->used;
  } else if (b.len == b.cap) {
    // Run full: relocate to the end of the slots array with doubled
    // capacity; the old run becomes tracked waste.
    const std::uint32_t begin = static_cast<std::uint32_t>(index->slots.size());
    index->slots.resize(index->slots.size() + std::size_t{b.cap} * 2);
    std::copy(index->slots.begin() + b.begin,
              index->slots.begin() + b.begin + b.len,
              index->slots.begin() + begin);
    index->waste += b.cap;
    b.begin = begin;
    b.cap *= 2;
  }
  index->slots[b.begin + b.len] = pos;
  ++b.len;
  if (index->waste > index->slots.size() / 2 && index->slots.size() > 1024) {
    CompactSlots(index);
  }
}

const IndexCache::Bucket* IndexCache::FindBucket(const MaskIndex& index,
                                                 std::size_t hash) {
  if (index.table.empty()) return nullptr;
  const std::size_t mask = index.table.size() - 1;
  std::size_t i = hash & mask;
  while (index.table[i].cap != 0) {
    if (index.table[i].hash == hash) return &index.table[i];
    i = (i + 1) & mask;
  }
  return nullptr;
}

void IndexCache::Reserve(MaskIndex* index, std::uint32_t rows) {
  // A table that holds `rows` distinct keys under the 3/4 load bound, so
  // building an index over a known column never doubles it; one run of
  // initial capacity per row.
  std::size_t size = 16;
  while (size * 3 < std::size_t{rows} * 4 + 4) size <<= 1;
  if (index->table.size() < size) {
    std::vector<Bucket> old = std::move(index->table);
    index->table.assign(size, Bucket{});
    const std::size_t mask = size - 1;
    for (const Bucket& b : old) {
      if (b.cap == 0) continue;
      std::size_t i = b.hash & mask;
      while (index->table[i].cap != 0) i = (i + 1) & mask;
      index->table[i] = b;
    }
  }
  index->slots.reserve(std::size_t{rows} * 4);
}

void IndexCache::AppendNewFacts(const FactColumn& facts, std::uint32_t end,
                                MaskIndex* index) {
  for (std::uint32_t i = index->indexed_count; i < end; ++i) {
    Add(index, HashValuesAt(facts[i], index->positions), i);
  }
  index->indexed_count = end;
}

std::vector<IndexWarmth> IndexCache::Warmth() const {
  std::vector<IndexWarmth> out;
  if (instance_->generation() != generation_) return out;
  out.reserve(indexes_.size());
  for (const auto& [key, index] : indexes_) {
    out.push_back(IndexWarmth{key.rel, key.mask, index.indexed_count});
  }
  std::sort(out.begin(), out.end());
  return out;
}

void IndexCache::Rewarm(const std::vector<IndexWarmth>& warmth) {
  indexes_.clear();
  generation_ = instance_->generation();
  for (const IndexWarmth& w : warmth) {
    MaskIndex& index = indexes_[MaskKey{w.rel, w.mask}];
    index.positions.clear();
    for (std::uint32_t p = 0; p < 64; ++p) {
      if ((w.mask >> p) & 1) index.positions.push_back(p);
    }
    AppendNewFacts(instance_->facts(w.rel), w.indexed, &index);
  }
}

CandidateRange IndexCache::Probe(RelationId rel,
                                 const std::uint32_t* positions,
                                 const Value* values, std::size_t n) {
  assert(n > 0);
  // A generation change means facts moved or were rewritten in place; every
  // cached bucket may now point at the wrong fact, so start over. Appends
  // do not change the generation and are handled incrementally below.
  if (instance_->generation() != generation_) {
    indexes_.clear();
    generation_ = instance_->generation();
  }
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (positions[i] >= 64) return CandidateRange{};  // wide relation: scan
    mask |= (std::uint64_t{1} << positions[i]);
  }
  auto [it, fresh] = indexes_.try_emplace(MaskKey{rel, mask});
  MaskIndex& index = it->second;
  if (fresh) index.positions.assign(positions, positions + n);
  const FactColumn facts = instance_->facts(rel);
  const auto end = static_cast<std::uint32_t>(facts.size());
  if (stats_ != nullptr) stats_->rows_indexed += end - index.indexed_count;
  if (index.indexed_count == 0) Reserve(&index, end);
  AppendNewFacts(facts, end, &index);
  const Bucket* bucket = FindBucket(index, HashValues(values, n));
  if (bucket == nullptr) return CandidateRange{nullptr, 0, true};
  return CandidateRange{index.slots.data() + bucket->begin, bucket->len, true};
}

}  // namespace tdx
