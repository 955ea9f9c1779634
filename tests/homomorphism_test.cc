#include "src/relational/homomorphism.h"

#include <gtest/gtest.h>

#include <set>

#include "tests/test_util.h"

namespace tdx {
namespace {

class HomomorphismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto e = schema_.AddRelation("E", {"name", "company"}, SchemaRole::kSource);
    ASSERT_TRUE(e.ok());
    e_ = *e;
    auto s = schema_.AddRelation("S", {"name", "salary"}, SchemaRole::kSource);
    ASSERT_TRUE(s.ok());
    s_ = *s;
    auto p = schema_.AddRelation("P", {"a", "b"}, SchemaRole::kSource);
    ASSERT_TRUE(p.ok());
    p_ = *p;
  }

  Atom MakeAtom(RelationId rel, std::vector<Term> terms) {
    Atom atom;
    atom.rel = rel;
    atom.terms = std::move(terms);
    return atom;
  }

  std::size_t CountHoms(const Conjunction& conj, const Instance& inst) {
    HomomorphismFinder finder(inst);
    Binding binding(conj.num_vars);
    HomomorphismFinder::Cursor cursor = finder.Open(conj, &binding);
    std::size_t count = 0;
    while (cursor.Next()) ++count;
    return count;
  }

  Universe u_;
  Schema schema_;
  RelationId e_ = 0, s_ = 0, p_ = 0;
};

TEST_F(HomomorphismTest, SingleAtomAllVariables) {
  Instance inst(&schema_);
  inst.Insert(e_, {u_.Constant("Ada"), u_.Constant("IBM")});
  inst.Insert(e_, {u_.Constant("Bob"), u_.Constant("IBM")});
  Conjunction conj;
  conj.atoms = {MakeAtom(e_, {Term::Var(0), Term::Var(1)})};
  conj.num_vars = 2;
  EXPECT_EQ(CountHoms(conj, inst), 2u);
}

TEST_F(HomomorphismTest, ConstantsFilter) {
  Instance inst(&schema_);
  inst.Insert(e_, {u_.Constant("Ada"), u_.Constant("IBM")});
  inst.Insert(e_, {u_.Constant("Bob"), u_.Constant("Google")});
  Conjunction conj;
  conj.atoms = {MakeAtom(e_, {Term::Var(0), Term::Val(u_.Constant("IBM"))})};
  conj.num_vars = 1;
  HomomorphismFinder finder(inst);
  Binding binding(1);
  HomomorphismFinder::Cursor cursor = finder.Open(conj, &binding);
  ASSERT_TRUE(cursor.Next());
  EXPECT_EQ(binding.Get(0), u_.Constant("Ada"));
  EXPECT_EQ(CountHoms(conj, inst), 1u);
}

TEST_F(HomomorphismTest, JoinVariableSharedAcrossAtoms) {
  Instance inst(&schema_);
  inst.Insert(e_, {u_.Constant("Ada"), u_.Constant("IBM")});
  inst.Insert(e_, {u_.Constant("Bob"), u_.Constant("IBM")});
  inst.Insert(s_, {u_.Constant("Ada"), u_.Constant("18k")});
  Conjunction conj;  // E(n, c) & S(n, s)
  conj.atoms = {MakeAtom(e_, {Term::Var(0), Term::Var(1)}),
                MakeAtom(s_, {Term::Var(0), Term::Var(2)})};
  conj.num_vars = 3;
  EXPECT_EQ(CountHoms(conj, inst), 1u);
}

TEST_F(HomomorphismTest, RepeatedVariableInOneAtom) {
  Instance inst(&schema_);
  inst.Insert(p_, {u_.Constant("a"), u_.Constant("a")});
  inst.Insert(p_, {u_.Constant("a"), u_.Constant("b")});
  Conjunction conj;  // P(x, x)
  conj.atoms = {MakeAtom(p_, {Term::Var(0), Term::Var(0)})};
  conj.num_vars = 1;
  EXPECT_EQ(CountHoms(conj, inst), 1u);
}

TEST_F(HomomorphismTest, TwoAtomsMayMapToTheSameFact) {
  Instance inst(&schema_);
  inst.Insert(p_, {u_.Constant("a"), u_.Constant("b")});
  Conjunction conj;  // P(x, y) & P(z, w): unconstrained pair
  conj.atoms = {MakeAtom(p_, {Term::Var(0), Term::Var(1)}),
                MakeAtom(p_, {Term::Var(2), Term::Var(3)})};
  conj.num_vars = 4;
  EXPECT_EQ(CountHoms(conj, inst), 1u);  // both atoms onto the single fact
}

TEST_F(HomomorphismTest, EmptyConjunctionHasOneTrivialHom) {
  Instance inst(&schema_);
  Conjunction conj;
  conj.num_vars = 0;
  EXPECT_EQ(CountHoms(conj, inst), 1u);
}

TEST_F(HomomorphismTest, NoMatchOnEmptyRelation) {
  Instance inst(&schema_);
  Conjunction conj;
  conj.atoms = {MakeAtom(e_, {Term::Var(0), Term::Var(1)})};
  conj.num_vars = 2;
  HomomorphismFinder finder(inst);
  Binding binding(2);
  EXPECT_FALSE(finder.Exists(conj, &binding));
}

TEST_F(HomomorphismTest, InitialBindingConstrains) {
  Instance inst(&schema_);
  inst.Insert(e_, {u_.Constant("Ada"), u_.Constant("IBM")});
  inst.Insert(e_, {u_.Constant("Bob"), u_.Constant("IBM")});
  Conjunction conj;
  conj.atoms = {MakeAtom(e_, {Term::Var(0), Term::Var(1)})};
  conj.num_vars = 2;
  Binding initial(2);
  initial.Bind(0, u_.Constant("Bob"));
  HomomorphismFinder finder(inst);
  HomomorphismFinder::Cursor cursor = finder.Open(conj, &initial);
  std::size_t count = 0;
  while (cursor.Next()) {
    EXPECT_EQ(cursor.binding().Get(0), u_.Constant("Bob"));
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

TEST_F(HomomorphismTest, ClosingMidEnumerationRestoresBinding) {
  Instance inst(&schema_);
  for (int i = 0; i < 10; ++i) {
    inst.Insert(e_, {u_.Constant("p" + std::to_string(i)), u_.Constant("c")});
    inst.Insert(s_, {u_.Constant("p" + std::to_string(i)), u_.Constant("s")});
  }
  Conjunction conj;  // E(n, c) & S(n, s), with c given
  conj.atoms = {MakeAtom(e_, {Term::Var(0), Term::Var(1)}),
                MakeAtom(s_, {Term::Var(0), Term::Var(2)})};
  conj.num_vars = 3;
  Binding binding(3);
  binding.Bind(1, u_.Constant("c"));
  HomomorphismFinder finder(inst);
  {
    HomomorphismFinder::Cursor cursor = finder.Open(conj, &binding);
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(cursor.Next());
    EXPECT_TRUE(binding.IsBound(0));
    EXPECT_TRUE(binding.IsBound(2));
  }  // closed mid-enumeration
  EXPECT_FALSE(binding.IsBound(0));
  EXPECT_FALSE(binding.IsBound(2));
  ASSERT_TRUE(binding.IsBound(1));
  EXPECT_EQ(binding.Get(1), u_.Constant("c"));
  // The finder enumerates afresh from the restored binding.
  HomomorphismFinder::Cursor cursor = finder.Open(conj, &binding);
  std::size_t count = 0;
  while (cursor.Next()) ++count;
  EXPECT_EQ(count, 10u);
}

TEST_F(HomomorphismTest, ImageReportsMatchedFacts) {
  Instance inst(&schema_);
  inst.Insert(e_, {u_.Constant("Ada"), u_.Constant("IBM")});
  inst.Insert(s_, {u_.Constant("Ada"), u_.Constant("18k")});
  Conjunction conj;
  conj.atoms = {MakeAtom(e_, {Term::Var(0), Term::Var(1)}),
                MakeAtom(s_, {Term::Var(0), Term::Var(2)})};
  conj.num_vars = 3;
  HomomorphismFinder finder(inst);
  Binding binding(3);
  HomomorphismFinder::Cursor cursor = finder.Open(conj, &binding);
  ASSERT_TRUE(cursor.Next());
  const AtomImage& img = cursor.image();
  EXPECT_EQ(img.size(), 2u);
  EXPECT_EQ(img[0].relation(), e_);
  EXPECT_EQ(img[1].relation(), s_);
  EXPECT_FALSE(cursor.Next());
}

TEST_F(HomomorphismTest, IntervalValuesMatchAsConstants) {
  auto ep = schema_.AddTemporalRelation("E+", {"name", "company"},
                                        SchemaRole::kSource);
  ASSERT_TRUE(ep.ok());
  Instance inst(&schema_);
  inst.Insert(*ep, {u_.Constant("Ada"), u_.Constant("IBM"),
                    Value::OfInterval(Interval(1, 5))});
  inst.Insert(*ep, {u_.Constant("Ada"), u_.Constant("IBM"),
                    Value::OfInterval(Interval(5, 9))});
  Conjunction conj;  // E+(n, c, t) with t a variable
  conj.atoms = {MakeAtom(*ep, {Term::Var(0), Term::Var(1), Term::Var(2)})};
  conj.num_vars = 3;
  std::set<TimePoint> starts;
  HomomorphismFinder finder(inst);
  Binding b(3);
  HomomorphismFinder::Cursor cursor = finder.Open(conj, &b);
  while (cursor.Next()) {
    EXPECT_TRUE(b.Get(2).is_interval());
    starts.insert(b.Get(2).interval().start());
  }
  EXPECT_EQ(starts, (std::set<TimePoint>{1, 5}));
}

TEST_F(HomomorphismTest, NullsMatchByIdentity) {
  Instance inst(&schema_);
  const Value n = u_.FreshNull();
  inst.Insert(e_, {u_.Constant("Ada"), n});
  Conjunction conj;  // E(x, <the null>)
  conj.atoms = {MakeAtom(e_, {Term::Var(0), Term::Val(n)})};
  conj.num_vars = 1;
  HomomorphismFinder finder(inst);
  Binding binding(1);
  EXPECT_TRUE(finder.Exists(conj, &binding));
  EXPECT_FALSE(binding.IsBound(0));  // Exists restores the binding
  Conjunction other;
  other.atoms = {MakeAtom(e_, {Term::Var(0), Term::Val(u_.FreshNull())})};
  other.num_vars = 1;
  EXPECT_FALSE(finder.Exists(other, &binding));
}

TEST_F(HomomorphismTest, LargeInstanceJoinCount) {
  Instance inst(&schema_);
  for (int i = 0; i < 1000; ++i) {
    inst.Insert(e_, {u_.Constant("p" + std::to_string(i)),
                     u_.Constant("c" + std::to_string(i % 7))});
    inst.Insert(s_, {u_.Constant("p" + std::to_string(i)),
                     u_.Constant("s" + std::to_string(i % 11))});
  }
  // E(n, "c3") & S(n, s): people whose company is c3; i % 7 == 3 happens
  // 143 times for i in [0, 1000).
  Conjunction conj;
  conj.atoms = {MakeAtom(e_, {Term::Var(0), Term::Val(u_.Constant("c3"))}),
                MakeAtom(s_, {Term::Var(0), Term::Var(1)})};
  conj.num_vars = 2;
  EXPECT_EQ(CountHoms(conj, inst), 143u);
}

TEST_F(HomomorphismTest, CrossProductEnumeratesAllPairs) {
  Instance inst(&schema_);
  for (int i = 0; i < 5; ++i) {
    inst.Insert(p_, {u_.Constant("x" + std::to_string(i)), u_.Constant("y")});
  }
  Conjunction conj;  // P(a, b) & P(c, d): 25 pairs
  conj.atoms = {MakeAtom(p_, {Term::Var(0), Term::Var(1)}),
                MakeAtom(p_, {Term::Var(2), Term::Var(3)})};
  conj.num_vars = 4;
  EXPECT_EQ(CountHoms(conj, inst), 25u);
}

// A chain E(x0, x1) & E(x1, x2) & ... & E(xn-1, xn) over a path of n
// edges matches exactly once, with each xi at node i. The cursor keeps one
// frame per atom on the heap, so a 10,000-atom chain needs no more call
// stack than a 1-atom one: it runs on a 256 KiB thread stack, where a search
// that recursed per atom crashed from 1,000 atoms.
TEST_F(HomomorphismTest, LongChainMatchesOnSmallStack) {
  constexpr std::size_t kAtoms = 10000;
  Instance inst(&schema_);
  std::vector<Value> nodes;
  for (std::size_t i = 0; i <= kAtoms; ++i) {
    nodes.push_back(u_.Constant("n" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < kAtoms; ++i) {
    inst.Insert(p_, {nodes[i], nodes[i + 1]});
  }
  Conjunction chain;
  for (std::size_t i = 0; i < kAtoms; ++i) {
    chain.atoms.push_back(
        MakeAtom(p_, {Term::Var(static_cast<VarId>(i)),
                      Term::Var(static_cast<VarId>(i + 1))}));
  }
  chain.num_vars = kAtoms + 1;
  Binding binding(chain.num_vars);
  binding.Bind(0, nodes[0]);  // anchor the chain at its first node
  std::size_t matches = 0;
  bool images_in_order = true;
  bool exists = false;
  bool restored = false;
  testing::RunOnSmallStack([&] {
    HomomorphismFinder finder(inst);
    {
      HomomorphismFinder::Cursor cursor = finder.Open(chain, &binding);
      while (cursor.Next()) {
        ++matches;
        for (std::size_t i = 0; i < kAtoms; ++i) {
          images_in_order = images_in_order && cursor.image()[i].pos() == i &&
                            binding.Get(static_cast<VarId>(i + 1)) ==
                                nodes[i + 1];
        }
      }
    }
    exists = finder.Exists(chain, &binding);
    restored = !binding.IsBound(kAtoms) && binding.IsBound(0);
  });
  EXPECT_EQ(matches, 1u);
  EXPECT_TRUE(images_in_order);
  EXPECT_TRUE(exists);
  EXPECT_TRUE(restored);
}

}  // namespace
}  // namespace tdx
