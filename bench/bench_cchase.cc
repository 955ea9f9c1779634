// Experiment C-CHASE (Section 4.3): concrete chase scaling.
//
// Sweeps the c-chase over employment workloads along three axes:
//  * instance size (people),
//  * timeline density (horizon; denser histories -> more fragmentation),
//  * the share of unknown salaries (more spans without a salary -> more
//    fresh nulls; the full rule sigma2 fires first and witnesses every span
//    with one, so no null is minted only to be merged by the egd).
//
// Also ablates the normalizer choice inside the chase (Algorithm 1 vs the
// naive endpoint normalizer, CChaseOptions::use_naive_normalizer): the
// naive normalizer saves grouping time but inflates the instance the tgds
// then iterate over — the paper's trade-off, measured.
//
// BM_StTgdPhase isolates the st-tgd phase and reports heap allocations
// per collected trigger (allocs_per_trigger, gated in
// bench/bench_gates.json), counted by the global operator new below, which
// replaces the default one in this binary only.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "src/core/cchase.h"
#include "src/core/normalize.h"
#include "src/gen/workload.h"
#include "src/relational/chase_run.h"

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

std::unique_ptr<tdx::Workload> MakeInstance(std::int64_t people,
                                            tdx::TimePoint horizon,
                                            double known) {
  tdx::EmploymentConfig cfg;
  cfg.num_people = static_cast<std::size_t>(people);
  cfg.num_companies = 10;
  cfg.avg_jobs = 3;
  cfg.horizon = horizon;
  cfg.salary_known_fraction = known;
  cfg.seed = 13;
  return tdx::MakeEmploymentWorkload(cfg);
}

void ReportChase(benchmark::State& state, const tdx::CChaseOutcome& outcome,
                 std::size_t source_facts) {
  state.counters["src_facts"] = static_cast<double>(source_facts);
  state.counters["norm_facts"] =
      static_cast<double>(outcome.source_norm_stats.output_facts);
  state.counters["tgt_facts"] = static_cast<double>(outcome.target.size());
  state.counters["tgd_fires"] = static_cast<double>(outcome.stats.tgd_fires);
  state.counters["egd_steps"] = static_cast<double>(outcome.stats.egd_steps);
  state.counters["nulls"] = static_cast<double>(outcome.stats.fresh_nulls);
}

void BM_CChaseBySize(benchmark::State& state) {
  auto w = MakeInstance(state.range(0), 100, 0.7);
  std::optional<tdx::CChaseOutcome> last;
  for (auto _ : state) {
    // Each iteration needs its own universe evolution; reuse is fine since
    // fresh nulls only grow the id space.
    auto outcome = tdx::CChase(w->source, w->lifted, &w->universe);
    benchmark::DoNotOptimize(outcome);
    if (outcome.ok()) last = std::move(outcome).value();
  }
  ReportChase(state, *last, w->source.size());
}
BENCHMARK(BM_CChaseBySize)->Arg(25)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

void BM_CChaseByDensity(benchmark::State& state) {
  // Same population, increasingly fine-grained histories.
  auto w = MakeInstance(100, static_cast<tdx::TimePoint>(state.range(0)), 0.7);
  std::optional<tdx::CChaseOutcome> last;
  for (auto _ : state) {
    auto outcome = tdx::CChase(w->source, w->lifted, &w->universe);
    benchmark::DoNotOptimize(outcome);
    if (outcome.ok()) last = std::move(outcome).value();
  }
  ReportChase(state, *last, w->source.size());
}
BENCHMARK(BM_CChaseByDensity)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

void BM_CChaseByUnknownShare(benchmark::State& state) {
  // range(0) = percent of employment spans with known salary.
  auto w = MakeInstance(100, 100, static_cast<double>(state.range(0)) / 100.0);
  std::optional<tdx::CChaseOutcome> last;
  for (auto _ : state) {
    auto outcome = tdx::CChase(w->source, w->lifted, &w->universe);
    benchmark::DoNotOptimize(outcome);
    if (outcome.ok()) last = std::move(outcome).value();
  }
  ReportChase(state, *last, w->source.size());
}
BENCHMARK(BM_CChaseByUnknownShare)->Arg(0)->Arg(30)->Arg(70)->Arg(100);

void BM_CChaseNormalizerAblation(benchmark::State& state) {
  // Small instance: the naive normalizer inflates the fact count so much
  // that larger sizes make this ablation dominate the whole harness.
  auto w = MakeInstance(30, 100, 0.7);
  tdx::CChaseOptions opts;
  opts.use_naive_normalizer = (state.range(0) == 1);
  std::optional<tdx::CChaseOutcome> last;
  for (auto _ : state) {
    auto outcome = tdx::CChase(w->source, w->lifted, &w->universe, opts);
    benchmark::DoNotOptimize(outcome);
    if (outcome.ok()) last = std::move(outcome).value();
  }
  state.SetLabel(opts.use_naive_normalizer ? "naive normalizer"
                                           : "Algorithm 1");
  ReportChase(state, *last, w->source.size());
}
BENCHMARK(BM_CChaseNormalizerAblation)->Arg(0)->Arg(1);

void BM_CChaseSemiNaiveAblation(benchmark::State& state) {
  // Trigger-enumeration strategy for the target-tgd rounds. The employment
  // mapping has egds but no target tgds, so this ablation measures the
  // OVERHEAD of the delta-frontier bookkeeping on an egd-heavy workload:
  // both arms must produce identical stats and near-identical times. (The
  // speedup side of the ablation lives in bench_target_tgd's rounds-heavy
  // cascade.) Arg: 1 = semi-naive, 0 = naive.
  auto w = MakeInstance(100, 100, 0.5);
  tdx::CChaseOptions opts;
  opts.semi_naive = (state.range(0) == 1);
  std::optional<tdx::CChaseOutcome> last;
  for (auto _ : state) {
    auto outcome = tdx::CChase(w->source, w->lifted, &w->universe, opts);
    benchmark::DoNotOptimize(outcome);
    if (outcome.ok()) last = std::move(outcome).value();
  }
  state.SetLabel(opts.semi_naive ? "semi-naive" : "naive rounds");
  state.counters["tgd_triggers"] =
      static_cast<double>(last->stats.tgd_triggers);
  ReportChase(state, *last, w->source.size());
}
BENCHMARK(BM_CChaseSemiNaiveAblation)->Arg(1)->Arg(0);

void BM_StTgdPhase(benchmark::State& state) {
  // The c-chase's st phase alone: the source is normalized once, outside
  // the timed loop, and each iteration runs the Datalog-first st plan
  // (ChaseRun::Begin) into a fresh target through fresh finders, as
  // CChase does. The run's trigger batch is reused across iterations, as
  // one run reuses it across rules and rounds, so allocs_per_trigger
  // counts a warm run's allocations: target inserts, index builds and the
  // witness probes', not trigger bookkeeping.
  auto w = MakeInstance(state.range(0), 100, 0.7);
  const tdx::ConcreteInstance normalized =
      tdx::Normalize(w->source, w->lifted.TgdBodies());
  const tdx::Instance& source = normalized.facts();
  tdx::ChaseRun run(tdx::ChaseEngine::kCChase, tdx::ChaseLimits{});
  tdx::ChaseStats begin_stats;
  if (!run.Begin(w->lifted, w->source.schema(), true, &begin_stats).ok()) {
    state.SkipWithError("ChaseRun::Begin failed");
    return;
  }
  // Each st-tgd's temporal variable annotates the nulls it mints.
  std::vector<tdx::VarId> temporal;
  for (const tdx::Tgd& tgd : w->lifted.st_tgds) {
    auto t = tgd.temporal_var.has_value()
                 ? tdx::Result<tdx::VarId>(*tgd.temporal_var)
                 : tdx::InferTemporalVar(tgd.body);
    if (!t.ok()) {
      state.SkipWithError("st-tgd without a temporal variable");
      return;
    }
    temporal.push_back(*t);
  }
  const tdx::FreshNullFactory fresh = [&](const tdx::Tgd& tgd,
                                          const tdx::Binding& trigger) {
    const tdx::VarId t = temporal[&tgd - w->lifted.st_tgds.data()];
    return w->universe.FreshAnnotatedNull(trigger.Get(t).interval());
  };
  std::uint64_t allocations = 0;
  std::size_t triggers = 0;
  std::size_t fires = 0;
  for (auto _ : state) {
    tdx::Instance target(&source.schema());
    tdx::ChaseStats stats;
    tdx::DeltaFrontier full;
    const std::uint64_t before = g_allocations.load();
    {
      tdx::HomomorphismFinder source_finder(source, &stats.search);
      tdx::HomomorphismFinder target_finder(target, &stats.search);
      tdx::RunTgds(source, &target, run.st_plan, &full, fresh, &stats,
                   &run.guard, &source_finder, &target_finder, &run.triggers);
    }
    allocations += g_allocations.load() - before;
    triggers += stats.tgd_triggers;
    fires += stats.tgd_fires;
    benchmark::DoNotOptimize(target);
  }
  const double iterations = static_cast<double>(state.iterations());
  state.counters["tgd_triggers"] = static_cast<double>(triggers) / iterations;
  state.counters["tgd_fires"] = static_cast<double>(fires) / iterations;
  state.counters["allocs_per_trigger"] =
      static_cast<double>(allocations) /
      static_cast<double>(std::max<std::size_t>(triggers, 1));
}
BENCHMARK(BM_StTgdPhase)->Arg(100);

}  // namespace
