// Resource-guard overhead: the governance layer must be invisible when no
// limits are set. Three measurements:
//
//  * BM_CChaseDefaultLimits — the c-chase hot path with default (unlimited)
//    ChaseLimits.
//  * BM_CChaseGenerousLimits — every budget set but far above the real
//    cost, so every admission compares against a finite limit without
//    ever tripping. The guard runs the same compare either way, so the
//    pair should agree within noise.
//  * BM_GuardAdmit — the raw per-admission cost in isolation (one compare
//    of a count the engine already keeps against the limit).
//
// Compare with: ./bench_guard_overhead --benchmark_filter=CChase

#include <benchmark/benchmark.h>

#include <optional>

#include "src/common/resource.h"
#include "src/core/cchase.h"
#include "src/gen/workload.h"

namespace {

std::unique_ptr<tdx::Workload> MakeInstance(std::int64_t people) {
  tdx::EmploymentConfig cfg;
  cfg.num_people = static_cast<std::size_t>(people);
  cfg.num_companies = 10;
  cfg.avg_jobs = 3;
  cfg.horizon = 100;
  cfg.salary_known_fraction = 0.7;
  cfg.seed = 13;
  return tdx::MakeEmploymentWorkload(cfg);
}

void RunChase(benchmark::State& state, const tdx::ChaseLimits& limits) {
  auto w = MakeInstance(state.range(0));
  tdx::CChaseOptions options;
  options.limits = limits;
  std::optional<tdx::CChaseOutcome> last;
  for (auto _ : state) {
    auto outcome = tdx::CChase(w->source, w->lifted, &w->universe, options);
    benchmark::DoNotOptimize(outcome);
    if (outcome.ok()) last = std::move(outcome).value();
  }
  if (last.has_value()) {
    state.counters["tgd_fires"] = static_cast<double>(last->stats.tgd_fires);
    state.counters["aborted"] =
        last->kind == tdx::ChaseResultKind::kAborted ? 1 : 0;
  }
}

void BM_CChaseDefaultLimits(benchmark::State& state) {
  RunChase(state, tdx::ChaseLimits{});
}
BENCHMARK(BM_CChaseDefaultLimits)->Arg(50)->Arg(200);

void BM_CChaseGenerousLimits(benchmark::State& state) {
  tdx::ChaseLimits limits;
  limits.max_tgd_fires = 100'000'000;
  limits.max_egd_steps = 100'000'000;
  limits.max_fresh_nulls = 100'000'000;
  limits.max_facts = 100'000'000;
  limits.max_normalize_fragments = 100'000'000;
  RunChase(state, limits);
}
BENCHMARK(BM_CChaseGenerousLimits)->Arg(50)->Arg(200);

void BM_GuardAdmit(benchmark::State& state) {
  tdx::ResourceGuard guard;
  std::size_t count = 0;
  for (auto _ : state) {
    ++count;
    benchmark::DoNotOptimize(guard.AdmitTgdFires(count));
    benchmark::DoNotOptimize(guard.AdmitFacts(count));
  }
}
BENCHMARK(BM_GuardAdmit);

}  // namespace
