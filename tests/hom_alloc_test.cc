// Verifies the homomorphism engine is allocation-free in steady state: once
// a finder's scratch buffers and indexes are warm, repeated enumerations
// over an unchanged instance perform zero heap allocations.
//
// The counting allocator overrides global operator new/delete for THIS test
// binary only (each tdx test is its own executable), so the counters see
// every allocation the search makes — frames, probe keys, candidate
// buffers, atom images, all of it.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/relational/homomorphism.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tdx {
namespace {

class HomAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    e_ = *schema_.AddRelation("E", {"a", "b"}, SchemaRole::kSource);
    instance_ = std::make_unique<Instance>(&schema_);
    // A small dense graph so two-atom joins have work to do.
    for (int i = 0; i < 20; ++i) {
      instance_->Insert(e_, {u_.Constant("n" + std::to_string(i)),
                             u_.Constant("n" + std::to_string((i + 1) % 20))});
      instance_->Insert(e_, {u_.Constant("n" + std::to_string(i)),
                             u_.Constant("n" + std::to_string((i + 7) % 20))});
    }
  }

  /// Two-atom path query E(x, y) & E(y, z).
  Conjunction PathQuery() {
    Conjunction conj;
    conj.num_vars = 3;
    conj.atoms.push_back(Atom{e_, {Term::Var(0), Term::Var(1)}});
    conj.atoms.push_back(Atom{e_, {Term::Var(1), Term::Var(2)}});
    return conj;
  }

  Universe u_;
  Schema schema_;
  RelationId e_ = 0;
  std::unique_ptr<Instance> instance_;
};

TEST_F(HomAllocTest, SteadyStateCursorIsAllocationFree) {
  HomomorphismFinder finder(*instance_);
  const Conjunction conj = PathQuery();
  Binding binding(conj.num_vars);
  const auto count = [&]() {
    std::size_t homs = 0;
    HomomorphismFinder::Cursor cursor = finder.Open(conj, &binding);
    while (cursor.Next()) ++homs;
    return homs;
  };
  // Warm-up: builds indexes, sizes scratch frames, grows the image.
  const std::size_t warm_count = count();
  ASSERT_GT(warm_count, 0u);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(count(), warm_count);
    EXPECT_TRUE(finder.Exists(conj, &binding));
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before)
      << "a warm cursor allocated on open, Next or close";
}

TEST_F(HomAllocTest, SteadyStateSeededCursorIsAllocationFree) {
  HomomorphismFinder finder(*instance_);
  const Conjunction conj = PathQuery();
  Binding binding(conj.num_vars);
  const std::uint32_t n =
      static_cast<std::uint32_t>(instance_->facts(e_).size());
  // Semi-naive rounds seed each body atom in turn.
  const auto count = [&]() {
    std::size_t homs = 0;
    for (std::size_t atom = 0; atom < conj.atoms.size(); ++atom) {
      HomomorphismFinder::Cursor cursor =
          finder.OpenSeeded(conj, atom, 0, n, &binding);
      while (cursor.Next()) ++homs;
    }
    return homs;
  };
  const std::size_t warm_count = count();
  ASSERT_GT(warm_count, 0u);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(count(), warm_count);
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before)
      << "a warm seeded cursor allocated on open, Next or close";
}

}  // namespace
}  // namespace tdx
