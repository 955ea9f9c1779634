// Experiment C-PARSE (tooling substrate): text-format throughput, in and
// out.
//
// Round-trips generated workloads through the serializer and parser:
// large fact lists dominate real program files, so the sweep scales the
// source instance. Counters report program size, facts/second, and heap
// allocations per parsed fact (allocs_per_fact, gated in
// bench/bench_gates.json), counted by the global operator new below, which
// replaces the default one in this binary only. The printer benchmarks
// render what `tdx_cli chase` and `tdx_cli query` print for the same
// program, with heap allocations per printed row (allocs_per_row, gated).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/core/cchase.h"
#include "src/core/certain.h"
#include "src/gen/workload.h"
#include "src/parser/parser.h"
#include "src/parser/printer.h"
#include "src/parser/serialize.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// None of these is inlined: once malloc or free is inlined beside an
// operator new or delete call (as in the static registration BENCHMARK
// emits), GCC's -Wmismatched-new-delete reports a mismatched pair.

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

std::string MakeProgramText(std::int64_t people) {
  tdx::EmploymentConfig cfg;
  cfg.num_people = static_cast<std::size_t>(people);
  cfg.horizon = 100;
  cfg.seed = 23;
  auto w = tdx::MakeEmploymentWorkload(cfg);

  // Assemble a full program around the generated facts.
  std::string text = tdx::SerializeSchema(w->schema);
  text += tdx::SerializeMapping(w->mapping, w->schema, w->universe);
  auto facts = tdx::SerializeInstanceFacts(w->source, w->universe);
  text += *facts;
  return text;
}

void BM_ParseProgram(benchmark::State& state) {
  const std::string text = MakeProgramText(state.range(0));
  std::size_t facts = 0;
  std::uint64_t allocations = 0;
  for (auto _ : state) {
    const std::uint64_t before = g_allocations.load();
    auto program = tdx::ParseProgram(text);
    allocations += g_allocations.load() - before;
    benchmark::DoNotOptimize(program);
    if (program.ok()) facts = (*program)->source.size();
  }
  state.counters["bytes"] = static_cast<double>(text.size());
  state.counters["facts"] = static_cast<double>(facts);
  state.counters["allocs_per_fact"] =
      static_cast<double>(allocations) /
      (static_cast<double>(state.iterations()) *
       static_cast<double>(std::max<std::size_t>(facts, 1)));
  state.SetBytesProcessed(static_cast<std::int64_t>(text.size()) *
                          state.iterations());
}
BENCHMARK(BM_ParseProgram)->Arg(50)->Arg(200)->Arg(800);

void BM_SerializeProgram(benchmark::State& state) {
  const std::string text = MakeProgramText(state.range(0));
  auto program = tdx::ParseProgram(text);
  if (!program.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  for (auto _ : state) {
    auto out = tdx::SerializeProgram(**program);
    benchmark::DoNotOptimize(out);
  }
  state.counters["bytes"] = static_cast<double>(text.size());
}
BENCHMARK(BM_SerializeProgram)->Arg(50)->Arg(200)->Arg(800);

/// Heap allocations per call of `render` over `rows` printed rows.
template <typename Render>
void CountAllocsPerRow(benchmark::State& state, std::size_t rows,
                       Render render) {
  std::uint64_t allocations = 0;
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::uint64_t before = g_allocations.load();
    std::string out = render();
    allocations += g_allocations.load() - before;
    bytes = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["output_bytes"] = static_cast<double>(bytes);
  state.counters["allocs_per_row"] =
      static_cast<double>(allocations) /
      (static_cast<double>(state.iterations()) *
       static_cast<double>(std::max<std::size_t>(rows, 1)));
}

/// `tdx_cli chase`'s output: the c-chase solution as aligned tables, with
/// annotated nulls in the salary column.
void BM_RenderConcreteInstance(benchmark::State& state) {
  auto program = tdx::ParseProgram(MakeProgramText(state.range(0)));
  if (!program.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  tdx::ParsedProgram& p = **program;
  auto chase = tdx::CChase(p.source, p.lifted, &p.universe);
  if (!chase.ok() || chase->kind != tdx::ChaseResultKind::kSuccess) {
    state.SkipWithError("chase failed");
    return;
  }
  CountAllocsPerRow(state, chase->target.size(), [&] {
    return tdx::RenderConcreteInstance(chase->target, p.universe);
  });
}
BENCHMARK(BM_RenderConcreteInstance)->Arg(800);

/// `tdx_cli query`'s output: the certain answers of Emp(n, _, s), temporal
/// tuples with their interval.
void BM_RenderAnswers(benchmark::State& state) {
  auto program = tdx::ParseProgram(MakeProgramText(state.range(0)) +
                                   "query paid(n, s): Emp(n, _, s);\n");
  if (!program.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  tdx::ParsedProgram& p = **program;
  auto lifted = tdx::LiftUnionQuery(p.queries.front(), p.schema);
  if (!lifted.ok()) {
    state.SkipWithError("lift failed");
    return;
  }
  auto result = tdx::CertainAnswers(*lifted, p.source, p.lifted, &p.universe);
  if (!result.ok() || result->chase_kind != tdx::ChaseResultKind::kSuccess) {
    state.SkipWithError("certain answers failed");
    return;
  }
  CountAllocsPerRow(state, result->answers.size(), [&] {
    return tdx::RenderAnswers(result->answers, p.universe);
  });
}
BENCHMARK(BM_RenderAnswers)->Arg(800);

}  // namespace
