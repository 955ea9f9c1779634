// Experiment C-HOM (substrate): the homomorphism (conjunctive-match)
// engine that underlies chase triggers, normalization grouping, and query
// evaluation. Sweeps selectivity regimes:
//
//  * indexed point lookups (all positions bound),
//  * star joins through one shared variable,
//  * unselective cross products (the engine's worst case),
//  * existence checks that stop at the first match.

#include <benchmark/benchmark.h>

#include <memory>

#include "src/relational/homomorphism.h"

namespace {

struct Fixture {
  tdx::Universe u;
  tdx::Schema schema;
  std::unique_ptr<tdx::Instance> instance;
  tdx::RelationId e = 0, s = 0;

  explicit Fixture(std::int64_t rows) {
    e = *schema.AddRelation("E", {"name", "company"}, tdx::SchemaRole::kSource);
    s = *schema.AddRelation("S", {"name", "salary"}, tdx::SchemaRole::kSource);
    instance = std::make_unique<tdx::Instance>(&schema);
    for (std::int64_t i = 0; i < rows; ++i) {
      instance->Insert(
          e, {u.Constant("p" + std::to_string(i)),
              u.Constant("c" + std::to_string(i % 17))});
      instance->Insert(
          s, {u.Constant("p" + std::to_string(i)),
              u.Constant("s" + std::to_string(i % 23))});
    }
  }
};

tdx::Atom MakeAtom(tdx::RelationId rel, std::vector<tdx::Term> terms) {
  tdx::Atom atom;
  atom.rel = rel;
  atom.terms = std::move(terms);
  return atom;
}

void BM_PointLookup(benchmark::State& state) {
  Fixture fx(state.range(0));
  tdx::Conjunction conj;
  conj.atoms = {MakeAtom(fx.e, {tdx::Term::Val(fx.u.Constant("p42")),
                                tdx::Term::Var(0)})};
  conj.num_vars = 1;
  tdx::HomomorphismFinder finder(*fx.instance);
  for (auto _ : state) {
    tdx::Binding binding(1);
    benchmark::DoNotOptimize(finder.Exists(conj, &binding));
  }
}
BENCHMARK(BM_PointLookup)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_StarJoin(benchmark::State& state) {
  Fixture fx(state.range(0));
  // E(n, c) & S(n, s): one hom per person.
  tdx::Conjunction conj;
  conj.atoms = {MakeAtom(fx.e, {tdx::Term::Var(0), tdx::Term::Var(1)}),
                MakeAtom(fx.s, {tdx::Term::Var(0), tdx::Term::Var(2)})};
  conj.num_vars = 3;
  std::size_t homs = 0;
  for (auto _ : state) {
    tdx::HomomorphismFinder finder(*fx.instance);
    tdx::Binding binding(3);
    homs = 0;
    tdx::HomomorphismFinder::Cursor cursor = finder.Open(conj, &binding);
    while (cursor.Next()) ++homs;
    benchmark::DoNotOptimize(homs);
  }
  state.counters["homs"] = static_cast<double>(homs);
  state.SetItemsProcessed(static_cast<std::int64_t>(homs) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StarJoin)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SelectiveJoin(benchmark::State& state) {
  Fixture fx(state.range(0));
  // E(n, "c3") & S(n, s): company filter then join.
  tdx::Conjunction conj;
  conj.atoms = {MakeAtom(fx.e, {tdx::Term::Var(0),
                                tdx::Term::Val(fx.u.Constant("c3"))}),
                MakeAtom(fx.s, {tdx::Term::Var(0), tdx::Term::Var(1)})};
  conj.num_vars = 2;
  std::size_t homs = 0;
  for (auto _ : state) {
    tdx::HomomorphismFinder finder(*fx.instance);
    tdx::Binding binding(2);
    homs = 0;
    tdx::HomomorphismFinder::Cursor cursor = finder.Open(conj, &binding);
    while (cursor.Next()) ++homs;
    benchmark::DoNotOptimize(homs);
  }
  state.counters["homs"] = static_cast<double>(homs);
}
BENCHMARK(BM_SelectiveJoin)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_CrossProductCapped(benchmark::State& state) {
  Fixture fx(state.range(0));
  // E(a, b) & E(c, d) unconstrained: quadratically many homs; enumerate the
  // first 10000 only (the chase's trigger dedup makes full enumeration
  // unnecessary in practice).
  tdx::Conjunction conj;
  conj.atoms = {MakeAtom(fx.e, {tdx::Term::Var(0), tdx::Term::Var(1)}),
                MakeAtom(fx.e, {tdx::Term::Var(2), tdx::Term::Var(3)})};
  conj.num_vars = 4;
  for (auto _ : state) {
    tdx::HomomorphismFinder finder(*fx.instance);
    tdx::Binding binding(4);
    std::size_t homs = 0;
    tdx::HomomorphismFinder::Cursor cursor = finder.Open(conj, &binding);
    while (homs < 10000 && cursor.Next()) ++homs;
    benchmark::DoNotOptimize(homs);
  }
}
BENCHMARK(BM_CrossProductCapped)->Arg(1000)->Arg(10000);

}  // namespace
