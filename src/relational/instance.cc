#include "src/relational/instance.h"

#include <algorithm>

namespace tdx {

std::size_t Instance::FindMember(RelationId rel, const Value* args,
                                 std::size_t n, std::size_t hash) const {
  if (members_.empty()) return kNpos;
  if (rel >= by_rel_.size()) return kNpos;
  const RelationStore& store = by_rel_[rel];
  if (store.count == 0 || store.arity != n) return kNpos;
  const std::size_t mask = members_.size() - 1;
  std::size_t i = hash & mask;
  while (true) {
    const MemberSlot& slot = members_[i];
    if (slot.pos == kEmptySlot) return kNpos;
    if (slot.pos != kTombstone && slot.hash == hash && slot.rel == rel) {
      const Value* row = store.arena.data() + std::size_t{slot.pos} * n;
      bool equal = true;
      for (std::size_t j = 0; j < n; ++j) {
        if (row[j] != args[j]) {
          equal = false;
          break;
        }
      }
      if (equal) return i;
    }
    i = (i + 1) & mask;
  }
}

bool Instance::EraseMemberAt(RelationId rel, std::uint32_t pos,
                             std::size_t hash) {
  if (members_.empty()) return false;
  const std::size_t mask = members_.size() - 1;
  std::size_t i = hash & mask;
  while (true) {
    MemberSlot& slot = members_[i];
    if (slot.pos == kEmptySlot) return false;
    if (slot.pos != kTombstone && slot.rel == rel && slot.pos == pos) {
      slot.pos = kTombstone;
      ++tombstones_;
      --size_;
      return true;
    }
    i = (i + 1) & mask;
  }
}

void Instance::InsertMember(RelationId rel, std::uint32_t pos,
                            std::size_t hash) {
  const std::size_t mask = members_.size() - 1;
  std::size_t i = hash & mask;
  while (members_[i].pos != kEmptySlot && members_[i].pos != kTombstone) {
    i = (i + 1) & mask;
  }
  if (members_[i].pos == kTombstone) --tombstones_;
  members_[i] = MemberSlot{hash, rel, pos};
  ++size_;
}

void Instance::ReserveMember() {
  if (members_.empty()) {
    members_.assign(16, MemberSlot{});
    return;
  }
  if ((size_ + tombstones_ + 1) * 10 <= members_.size() * 7) return;
  // Size for the live population; a tombstone-heavy table rehashes in place
  // (same capacity, tombstones dropped).
  std::size_t target = 16;
  while ((size_ + 1) * 10 > target * 7) target <<= 1;
  if (target < members_.size()) target = members_.size();
  std::vector<MemberSlot> old = std::move(members_);
  members_.assign(target, MemberSlot{});
  tombstones_ = 0;
  const std::size_t mask = target - 1;
  for (const MemberSlot& slot : old) {
    if (slot.pos == kEmptySlot || slot.pos == kTombstone) continue;
    std::size_t i = slot.hash & mask;
    while (members_[i].pos != kEmptySlot) i = (i + 1) & mask;
    members_[i] = slot;
  }
}

void Instance::RebuildMembersFromArena() {
  size_ = 0;
  for (const RelationStore& store : by_rel_) size_ += store.count;
  std::size_t target = 16;
  while ((size_ + 1) * 10 > target * 7) target <<= 1;
  members_.assign(target, MemberSlot{});
  tombstones_ = 0;
  const std::size_t mask = target - 1;
  for (RelationId rel = 0; rel < by_rel_.size(); ++rel) {
    const RelationStore& store = by_rel_[rel];
    for (std::uint32_t pos = 0; pos < store.count; ++pos) {
      const Value* row = store.arena.data() + std::size_t{pos} * store.arity;
      const std::size_t hash = HashFactSpan(rel, row, store.arity);
      std::size_t i = hash & mask;
      while (members_[i].pos != kEmptySlot) i = (i + 1) & mask;
      members_[i] = MemberSlot{hash, rel, pos};
    }
  }
}

bool Instance::InsertSpan(RelationId rel, const Value* args, std::size_t n) {
  assert(rel < schema_->relation_count());
  assert(n == schema_->relation(rel).arity() &&
         "fact arity must match relation schema");
  if (rel >= by_rel_.size()) by_rel_.resize(schema_->relation_count());
  RelationStore& store = by_rel_[rel];
  assert(store.count == 0 || store.arity == n);
  const std::size_t hash = HashFactSpan(rel, args, n);
  ReserveMember();
  // One probe pass doubles as duplicate check and slot claim.
  const std::size_t mask = members_.size() - 1;
  std::size_t i = hash & mask;
  std::size_t claim = kNpos;
  while (true) {
    const MemberSlot& slot = members_[i];
    if (slot.pos == kEmptySlot) break;
    if (slot.pos == kTombstone) {
      if (claim == kNpos) claim = i;
    } else if (slot.hash == hash && slot.rel == rel && store.count != 0) {
      const Value* row = store.arena.data() + std::size_t{slot.pos} * n;
      bool equal = true;
      for (std::size_t j = 0; j < n; ++j) {
        if (row[j] != args[j]) {
          equal = false;
          break;
        }
      }
      if (equal) return false;
    }
    i = (i + 1) & mask;
  }
  if (claim == kNpos) claim = i;
  // Append the run; copy out first if `args` aliases this very arena (its
  // reallocation would invalidate the source mid-copy).
  if (args >= store.arena.data() &&
      args < store.arena.data() + store.arena.size()) {
    std::vector<Value> copy(args, args + n);
    store.arena.insert(store.arena.end(), copy.begin(), copy.end());
  } else {
    store.arena.insert(store.arena.end(), args, args + n);
  }
  const std::uint32_t pos = store.count++;
  store.arity = static_cast<std::uint32_t>(n);
  if (members_[claim].pos == kTombstone) --tombstones_;
  members_[claim] = MemberSlot{hash, rel, pos};
  ++size_;
  return true;
}

bool Instance::Erase(const Fact& fact) {
  const RelationId rel = fact.relation();
  if (rel >= by_rel_.size()) return false;
  const std::size_t slot =
      FindMember(rel, fact.args().data(), fact.arity(), fact.Hash());
  if (slot == kNpos) return false;
  const std::uint32_t pos = members_[slot].pos;
  members_[slot].pos = kTombstone;
  ++tombstones_;
  --size_;
  RelationStore& store = by_rel_[rel];
  const std::size_t arity = store.arity;
  Value* base = store.arena.data();
  std::move(base + (std::size_t{pos} + 1) * arity,
            base + std::size_t{store.count} * arity,
            base + std::size_t{pos} * arity);
  --store.count;
  store.arena.resize(std::size_t{store.count} * arity);
  // Facts after the hole shifted down one position; renumber their slots.
  for (MemberSlot& s : members_) {
    if (s.pos != kEmptySlot && s.pos != kTombstone && s.rel == rel &&
        s.pos > pos) {
      --s.pos;
    }
  }
  ++generation_;
  return true;
}

void Instance::Truncate(const std::vector<std::uint32_t>& counts) {
  const std::size_t rels = std::min(counts.size(), by_rel_.size());
  bool removed = false;
  for (std::size_t r = 0; r < rels; ++r) {
    RelationStore& store = by_rel_[r];
    if (store.count <= counts[r]) continue;
    const auto rel = static_cast<RelationId>(r);
    for (std::uint32_t pos = counts[r]; pos < store.count; ++pos) {
      const bool erased = EraseMemberAt(
          rel, pos, HashFactSpan(rel, Row(rel, pos), store.arity));
      assert(erased && "every stored row has a membership slot");
      (void)erased;
    }
    store.count = counts[r];
    store.arena.resize(std::size_t{store.count} * store.arity);
    removed = true;
  }
  if (removed) ++generation_;
}

RewriteResult Instance::RewriteFacts(
    const std::vector<FactRef>& refs,
    const std::unordered_map<Value, Value, ValueHash>& subst) {
  RewriteResult result;
  if (refs.empty() || subst.empty()) return result;
  ++generation_;

  // Pass 1: compute the rewritten spellings (into one scratch buffer) and
  // remove the old facts from the membership table, so that pass 2 detects
  // collisions against exactly the facts that survive the whole
  // substitution (matching the semantics of a full rebuild, where every
  // fact is rewritten before dedup applies).
  struct Pending {
    FactRef ref;
    std::size_t offset;  // into `rewritten`
  };
  std::vector<Value> rewritten;
  std::vector<Pending> pending;
  pending.reserve(refs.size());
  for (const FactRef& ref : refs) {
    assert(ref.rel < by_rel_.size() && ref.pos < by_rel_[ref.rel].count);
    const RelationStore& store = by_rel_[ref.rel];
    const std::size_t arity = store.arity;
    const Value* row = store.arena.data() + std::size_t{ref.pos} * arity;
    const std::size_t offset = rewritten.size();
    std::size_t changed = 0;
    for (std::size_t j = 0; j < arity; ++j) {
      auto it = subst.find(row[j]);
      if (it != subst.end() && it->second != row[j]) {
        rewritten.push_back(it->second);
        ++changed;
      } else {
        rewritten.push_back(row[j]);
      }
    }
    if (changed == 0) {  // stale ref: fact mentions no merged value
      rewritten.resize(offset);
      continue;
    }
    const std::size_t old_hash = HashFactSpan(ref.rel, row, arity);
    if (!EraseMemberAt(ref.rel, ref.pos, old_hash)) {
      rewritten.resize(offset);  // duplicate ref: already queued
      continue;
    }
    result.values_rewritten += changed;
    ++result.facts_rewritten;
    pending.push_back({ref, offset});
  }

  // Pass 2: write the rewritten facts back at their original positions; a
  // collision (with an untouched fact or an earlier rewrite) marks the slot
  // dead and forces compaction.
  std::vector<std::vector<std::uint32_t>> dead(by_rel_.size());
  for (const Pending& p : pending) {
    RelationStore& store = by_rel_[p.ref.rel];
    const std::size_t arity = store.arity;
    const Value* row = rewritten.data() + p.offset;
    const std::size_t hash = HashFactSpan(p.ref.rel, row, arity);
    if (FindMember(p.ref.rel, row, arity, hash) != kNpos) {
      dead[p.ref.rel].push_back(p.ref.pos);
      result.compacted = true;
    } else {
      std::copy(row, row + arity,
                store.arena.data() + std::size_t{p.ref.pos} * arity);
      InsertMember(p.ref.rel, p.ref.pos, hash);
    }
  }
  if (!result.compacted) return result;

  // Close the dead holes per relation, then rebuild the membership table
  // (positions after each hole shifted).
  for (RelationId rel = 0; rel < dead.size(); ++rel) {
    std::vector<std::uint32_t>& holes = dead[rel];
    if (holes.empty()) continue;
    std::sort(holes.begin(), holes.end());
    RelationStore& store = by_rel_[rel];
    const std::size_t arity = store.arity;
    Value* base = store.arena.data();
    std::size_t write = holes[0];
    std::size_t next_hole = 0;
    for (std::size_t read = holes[0]; read < store.count; ++read) {
      if (next_hole < holes.size() && read == holes[next_hole]) {
        ++next_hole;
        continue;
      }
      if (read != write) {
        std::move(base + read * arity, base + (read + 1) * arity,
                  base + write * arity);
      }
      ++write;
    }
    store.count = static_cast<std::uint32_t>(write);
    store.arena.resize(write * arity);
  }
  RebuildMembersFromArena();
  return result;
}

std::vector<Fact> Instance::CopyFacts(RelationId rel) const {
  std::vector<Fact> out;
  const FactColumn column = facts(rel);
  out.reserve(column.size());
  for (FactView view : column) out.push_back(view.ToFact());
  return out;
}

void Instance::ForEach(const std::function<void(FactView)>& fn) const {
  for (RelationId rel = 0; rel < by_rel_.size(); ++rel) {
    const RelationStore& store = by_rel_[rel];
    const Value* base = store.arena.data();
    for (std::uint32_t pos = 0; pos < store.count; ++pos) {
      fn(FactView(rel, pos, base + std::size_t{pos} * store.arity,
                  store.arity));
    }
  }
}

Instance Instance::ReplaceValue(const Value& from, const Value& to) const {
  Instance out(schema_);
  std::vector<Value> row;
  ForEach([&](FactView f) {
    row.assign(f.args().begin(), f.args().end());
    for (Value& v : row) {
      if (v == from) v = to;
    }
    out.InsertSpan(f.relation(), row.data(), row.size());
  });
  return out;
}

Instance Instance::Union(const Instance& a, const Instance& b) {
  assert(&a.schema() == &b.schema());
  Instance out(&a.schema());
  a.ForEach([&](FactView f) { out.Insert(f); });
  b.ForEach([&](FactView f) { out.Insert(f); });
  return out;
}

bool operator==(const Instance& a, const Instance& b) {
  if (a.size_ != b.size_) return false;
  for (RelationId rel = 0; rel < a.by_rel_.size(); ++rel) {
    const Instance::RelationStore& store = a.by_rel_[rel];
    const Value* base = store.arena.data();
    for (std::uint32_t pos = 0; pos < store.count; ++pos) {
      const Value* row = base + std::size_t{pos} * store.arity;
      if (b.FindMember(rel, row, store.arity,
                       HashFactSpan(rel, row, store.arity)) ==
          Instance::kNpos) {
        return false;
      }
    }
  }
  return true;
}

std::string Instance::ToString(const Universe& u) const {
  std::vector<Fact> sorted;
  sorted.reserve(size_);
  ForEach([&](FactView f) { sorted.push_back(f.ToFact()); });
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const Fact& f : sorted) {
    out += f.ToString(*schema_, u);
    out += "\n";
  }
  return out;
}

}  // namespace tdx
